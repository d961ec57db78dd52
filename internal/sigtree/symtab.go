package sigtree

import (
	"math/bits"
	"math/rand/v2"
	"strings"
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
// with a single atomic pointer read and then probe index without a lock.
// index may lag the authoritative table by a bounded fraction (see publish
// thresholds); strs is always current to its length — generations share
// the backing array, and an element is written exactly once, before any
// snapshot whose length covers it is published.
type symSnap struct {
	// index is an open-addressing table over the first indexed symbols of
	// strs: a power-of-two number of slots, at most half full, probed
	// linearly from hash&mask. A slot holds the token hash's top 32 bits
	// over ID+1, so 0 is empty and a hit costs one string compare to
	// confirm.
	index   []uint64
	mask    uint64
	indexed int
	strs    []string
}

// lookup returns the ID of tok, whose symHash under the table's seed is h,
// if s's index holds it.
func lookup[T string | []byte](s *symSnap, tok T, h uint64) (uint32, bool) {
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		e := s.index[i]
		if e == 0 {
			return 0, false
		}
		if e>>32 == h>>32 {
			if id := uint32(e) - 1; s.strs[id] == string(tok) {
				return id, true
			}
		}
	}
}

// symTab is an append-only string⇄uint32 intern table with a lock-free
// read path. A lookup is one atomic load, one seeded hash of the token and
// a probe of the published index, confirmed by one string compare. Misses
// fall into a mutex slow path over the authoritative map; the published
// index is rebuilt (an O(vocab) pass) only when the stale fraction crosses
// 1/4, so intern cost stays amortized O(1) per token all the way to
// symLimit instead of going quadratic near it.
type symTab struct {
	// seed keys symHash. It is drawn per table, so no sender can choose
	// tokens that pile onto one probe run of every monitor's index.
	seed uint64

	mu sync.Mutex
	// auth is the authoritative token→ID map; strs its inverse. Both are
	// guarded by mu (strs additionally feeds snapshots: append-only, and
	// published lengths never cover unwritten elements).
	auth map[string]uint32
	strs []string
	// pending counts tokens interned since the last index publish;
	// staleHits counts lock-path lookups that the published index missed.
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
	st.seed = rand.Uint64()
	st.auth = map[string]uint32{Wildcard: wildcardID}
	st.strs = []string{Wildcard}
	st.publishLocked()
}

// publishLocked builds a fresh index over the authoritative map.
// Caller holds mu (or is init's single-threaded constructor).
func (st *symTab) publishLocked() {
	size := 16
	for size < 2*len(st.auth) {
		size <<= 1
	}
	index := make([]uint64, size)
	mask := uint64(size - 1)
	for tok, id := range st.auth {
		h := symHash(tok, st.seed)
		i := h & mask
		for index[i] != 0 {
			i = (i + 1) & mask
		}
		index[i] = h>>32<<32 | uint64(id+1)
	}
	st.snap.Store(&symSnap{index: index, mask: mask, indexed: len(st.auth), strs: st.strs})
	st.pending, st.staleHits = 0, 0
}

// intern returns the ID for the token bytes, adding it to the table when
// new. A token the full table does not hold gets wildcardID (see symLimit).
func (st *symTab) intern(tok []byte) uint32 {
	s := st.snap.Load()
	if id, ok := lookup(s, tok, symHash(tok, st.seed)); ok {
		return id
	}
	if len(s.strs) >= symLimit && s.indexed == len(s.strs) {
		// Full AND the published index is complete, so the miss is real;
		// skip the mutex. (A stale index must still fall through — the
		// token may be interned but unpublished.)
		return st.overflow()
	}
	return st.slowIntern(string(tok))
}

// internString is intern for callers that already hold a string. The
// string may be cut from a larger one, so a new symbol keeps its own copy.
func (st *symTab) internString(tok string) uint32 {
	s := st.snap.Load()
	if id, ok := lookup(s, tok, symHash(tok, st.seed)); ok {
		return id
	}
	if len(s.strs) >= symLimit && s.indexed == len(s.strs) {
		return st.overflow()
	}
	return st.slowIntern(strings.Clone(tok))
}

// overflow is the answer for a token the full table does not hold.
func (st *symTab) overflow() uint32 {
	st.overflows.Add(1)
	return wildcardID
}

// slowIntern consults the authoritative map under the mutex and appends
// genuinely new tokens. Republish policy: a fresh index is published
// when pending inserts or stale hits reach 64 + vocab/4, which amortizes
// the O(vocab) rebuild to O(1) per slow-path visit and bounds how long a
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
		// Terminal state: publish the complete index once so future misses
		// short-circuit without the mutex.
		if st.snap.Load().indexed != len(st.strs) {
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
		// the index stays stale until the threshold trips.
		cur := *st.snap.Load()
		cur.strs = st.strs
		st.snap.Store(&cur)
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

// symHash is the index's hash of a token's bytes under a table's seed: a
// wyhash-style mix of 64×64→128-bit multiplies over little-endian words,
// one multiply per 16 bytes plus two to finish, so a token of up to 16
// bytes costs two. Reads past neither end: a short tail is assembled from
// overlapping words.
func symHash[T string | []byte](b T, seed uint64) uint64 {
	const k0, k1 = 0xa0761d6478bd642f, 0xe7037ed1a0b428db
	n := len(b)
	h := seed ^ k0
	for ; len(b) > 16; b = b[16:] {
		h = mix64(le64(b)^k1, le64(b[8:])^h)
	}
	var x, y uint64
	switch {
	case len(b) > 8:
		x, y = le64(b), le64(b[len(b)-8:])
	case len(b) >= 4:
		x, y = le32(b), le32(b[len(b)-4:])
	case len(b) > 0:
		x = uint64(b[0])<<16 | uint64(b[len(b)>>1])<<8 | uint64(b[len(b)-1])
	}
	return mix64(k1^uint64(n), mix64(x^k1, y^h))
}

// mix64 folds the 128-bit product of a and b into 64 bits.
func mix64(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func le64[T string | []byte](b T) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func le32[T string | []byte](b T) uint64 {
	_ = b[3]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
}
