package sigtree

import (
	"sync"
	"sync/atomic"
)

// wildcardID is the reserved symbol ID of Wildcard; the table is seeded
// with it so masked positions compare as a single integer everywhere.
const wildcardID uint32 = 0

// symLimit caps the symbol table. Structural vocabulary is small (variable
// fields are masked before interning), so the cap exists only to bound
// memory against adversarial input. Past it the table takes no new token:
// intern answers wildcardID for one it does not already hold, so an unseen
// structural token is treated as a variable field, and every token interned
// before the cap keeps its ID and keeps matching. A var only so the full
// table is testable without a million interns; nothing outside tests may
// write it.
var symLimit = 1 << 20

// symSnap is one published generation of the symbol table. Readers load it
// with a single atomic pointer read and then use plain map/slice lookups.
// ids may lag the authoritative table by a bounded fraction (see publish
// thresholds); strs is always current to its length — generations share
// the backing array, and an element is written exactly once, before any
// snapshot whose length covers it is published.
type symSnap struct {
	ids  map[string]uint32
	strs []string
}

// symTab is an append-only string⇄uint32 intern table with a lock-free
// read path. Lookups cost one atomic load plus one map access (the
// map[string]uint32 lookup with a []byte key compiles to zero-copy).
// Misses fall into a mutex slow path over the authoritative map; the
// published map is refreshed (an O(vocab) copy) only when the stale
// fraction crosses 1/4, so intern cost stays amortized O(1) per token all
// the way to symLimit instead of going quadratic near it.
type symTab struct {
	mu sync.Mutex
	// auth is the authoritative token→ID map; strs its inverse. Both are
	// guarded by mu (strs additionally feeds snapshots: append-only, and
	// published lengths never cover unwritten elements).
	auth map[string]uint32
	strs []string
	// pending counts tokens interned since the last ids publish;
	// staleHits counts lock-path lookups that the published map missed.
	// Either crossing 1/4 of the vocabulary triggers a republish.
	pending   int
	staleHits int

	snap atomic.Pointer[symSnap]
	// overflows counts the tokens answered with wildcardID because the
	// table was full.
	overflows atomic.Uint64
}

// init seeds the table with the wildcard at ID 0.
func (st *symTab) init() {
	st.auth = map[string]uint32{Wildcard: wildcardID}
	st.strs = []string{Wildcard}
	st.publishLocked()
}

// publishLocked copies the authoritative map into a fresh snapshot.
// Caller holds mu (or is init's single-threaded constructor).
func (st *symTab) publishLocked() {
	ids := make(map[string]uint32, len(st.auth))
	for k, v := range st.auth {
		ids[k] = v
	}
	st.snap.Store(&symSnap{ids: ids, strs: st.strs})
	st.pending, st.staleHits = 0, 0
}

// intern returns the ID for the token bytes, adding it to the table when
// new. A token the full table does not hold gets wildcardID (see symLimit).
func (st *symTab) intern(tok []byte) uint32 {
	s := st.snap.Load()
	if id, ok := s.ids[string(tok)]; ok { // zero-copy map key conversion
		return id
	}
	if len(s.strs) >= symLimit && len(s.ids) == len(s.strs) {
		// Full AND the published map is complete, so the miss is real;
		// skip the mutex. (Stale published maps must still fall through —
		// the token may be interned but unpublished.)
		return st.overflow()
	}
	return st.slowIntern(string(tok))
}

// internString is intern for callers that already hold a string.
func (st *symTab) internString(tok string) uint32 {
	s := st.snap.Load()
	if id, ok := s.ids[tok]; ok {
		return id
	}
	if len(s.strs) >= symLimit && len(s.ids) == len(s.strs) {
		return st.overflow()
	}
	return st.slowIntern(tok)
}

// overflow is the answer for a token the full table does not hold.
func (st *symTab) overflow() uint32 {
	st.overflows.Add(1)
	return wildcardID
}

// slowIntern consults the authoritative map under the mutex and appends
// genuinely new tokens. Republish policy: a fresh ids map is published
// when pending inserts or stale hits reach 64 + vocab/4, which amortizes
// the O(vocab) copy to O(1) per slow-path visit and bounds how long a
// recently interned token keeps paying the mutex.
func (st *symTab) slowIntern(tok string) uint32 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if id, ok := st.auth[tok]; ok {
		st.staleHits++
		if st.staleHits >= 64+len(st.auth)>>2 {
			st.publishLocked()
		}
		return id
	}
	if len(st.strs) >= symLimit {
		// Terminal state: publish the complete map once so future misses
		// short-circuit without the mutex.
		if len(st.snap.Load().ids) != len(st.strs) {
			st.publishLocked()
		}
		return st.overflow()
	}
	id := uint32(len(st.strs))
	st.auth[tok] = id
	st.strs = append(st.strs, tok)
	st.pending++
	if st.pending >= 64+len(st.auth)>>2 {
		st.publishLocked()
	} else {
		// Publish the longer strs so str() resolves the new ID at once;
		// the ids map stays stale until the threshold trips.
		cur := st.snap.Load()
		st.snap.Store(&symSnap{ids: cur.ids, strs: st.strs})
	}
	return id
}

// str resolves an ID back to its string. Every ID handed out by intern is
// covered by the snapshot published before intern returned.
func (st *symTab) str(id uint32) string {
	return st.snap.Load().strs[id]
}

// size returns the number of interned symbols (wildcard included).
func (st *symTab) size() int {
	return len(st.snap.Load().strs)
}
