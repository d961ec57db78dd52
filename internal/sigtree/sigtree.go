// Package sigtree extracts message templates (signatures) from raw,
// free-form syslog text, implementing the signature-tree approach of Qiu
// et al., "What happened in my network: mining network events from router
// syslogs" (IMC 2010), which the paper uses to turn unstructured vPE
// syslogs into the structured (template, inter-arrival) tuples its LSTM
// consumes (§4.2).
//
// The extractor works in two stages, mirroring the signature tree:
//
//  1. Tokenization with variable-field masking: tokens that look like
//     values rather than message structure — numbers, IP addresses,
//     hex strings, interface names, quoted strings — are replaced by a
//     wildcard before tree insertion.
//  2. Bucketing and similarity merge: messages are bucketed by token
//     count (the coarse first-level split of the signature tree), then
//     merged into the best-matching existing signature when the fraction
//     of equal tokens meets a threshold; positions that disagree become
//     wildcards.
//
// Templates receive stable small-integer IDs in discovery order, which
// downstream models use directly as class indices.
//
// One front end feeds the tree in every binary: the interned path
// (PrepareSyms/AppendSyms + LearnSyms, which Learn wraps). A byte-oriented
// scanner (scan.go) interns tokens into a per-tree symbol table
// (symtab.go) without copying per token, and matching compares uint32
// symbol IDs. The table is capped; a structural token the full table does
// not hold is treated as a variable field (it becomes the wildcard), so
// the scanner cannot fail and the tree needs no second path past the cap.
//
// The string path (PrepareTokens+LearnTokens: plain []string tokens,
// position-wise string comparison) is the reference implementation the
// tests and the benchmark's oracle compare the scanner against. It is
// equivalent below the cap and has no production caller.
//
// Every template carries both representations, Tokens[i] being the string
// of syms[i] always, so serialization (Save/Load, Fingerprint) sees only
// strings — the wire format is byte-identical to the pre-interning one.
package sigtree

import (
	"encoding/gob"
	"fmt"
	"io"
	"strings"
)

// Wildcard is the placeholder token for variable fields in a template.
const Wildcard = "*"

// Template is one learned log signature.
type Template struct {
	// ID is the stable small-integer identifier, assigned in discovery
	// order starting at 0.
	ID int
	// Tokens is the token sequence with Wildcard at variable positions.
	Tokens []string
	// Count is the number of messages matched to this template so far.
	Count int

	// syms mirrors Tokens as interned symbol IDs (wildcardID at masked
	// positions). It is unexported, so gob serialization — and therefore
	// checkpoint and bundle bytes — is unchanged by its existence.
	syms []uint32
}

// String renders the template with wildcards, e.g. "interface * down".
func (t *Template) String() string { return strings.Join(t.Tokens, " ") }

// Tree learns and matches log templates. Learning is not safe for
// concurrent use; callers that share a Tree across goroutines must
// synchronize Learn/LearnTokens/LearnSyms/Match. PrepareSyms/AppendSyms
// are the exception: they touch only the lock-free symbol table and may
// run concurrently with each other and with learning.
type Tree struct {
	// SimThreshold is the minimum fraction of token positions that must
	// match an existing signature for a message to merge into it.
	simThreshold float64
	// MaxTemplates caps the number of distinct templates; once reached,
	// unmatched messages map to the overflow template.
	maxTemplates int

	templates []*Template
	// buckets groups template indices by token count for candidate
	// lookup; within a bucket the best similarity match wins. Token
	// count is the coarse split the signature tree's first level makes.
	buckets map[int][]int
	// overflow is the catch-all template ID once maxTemplates is hit,
	// or -1 if not yet allocated.
	overflow int

	// syms interns token strings to the uint32 IDs the hot path compares.
	syms symTab
	// tb is Learn's scratch, guarded by whatever serializes learning.
	tb TokenBuf
}

// New returns an empty signature tree.
func New() *Tree {
	t := &Tree{
		simThreshold: 0.6,
		maxTemplates: 1024,
		buckets:      make(map[int][]int),
		overflow:     -1,
	}
	t.syms.init()
	return t
}

// Len returns the number of learned templates.
func (t *Tree) Len() int { return len(t.templates) }

// TemplateByID returns the template with the given ID, or nil.
func (t *Tree) TemplateByID(id int) *Template {
	if id < 0 || id >= len(t.templates) {
		return nil
	}
	return t.templates[id]
}

// SymCount returns the number of interned token symbols (wildcard
// included) — an observability hook for the hot path's vocabulary size.
func (t *Tree) SymCount() int { return t.syms.size() }

// SymOverflows returns how many tokens were mapped to the wildcard because
// the symbol table was full (see symLimit). Lock-free, like SymCount.
func (t *Tree) SymOverflows() uint64 { return t.syms.overflows.Load() }

// Learn matches msg against the tree, creating or refining a template as
// needed, increments its count, and returns it: PrepareSyms + LearnSyms
// over the tree's own scratch.
func (t *Tree) Learn(msg string) *Template {
	syms, _ := t.PrepareSyms(msg, &t.tb)
	return t.LearnSyms(syms)
}

// PrepareTokens tokenizes and masks msg into the canonical form LearnTokens
// consumes — the reference for what PrepareSyms interns. A pure function of
// msg.
func PrepareTokens(msg string) []string {
	tokens := maskTokens(Tokenize(msg))
	if len(tokens) == 0 {
		tokens = []string{Wildcard}
	}
	return tokens
}

// LearnTokens is the reference for LearnSyms, over tokens prepared with
// PrepareTokens: the same template, ID and count while the symbol table
// has room. It does not map un-internable tokens to the wildcard before
// matching, so past the cap the two differ. Like every learning method it
// requires external synchronization; the caller must not mutate tokens
// afterwards (a new template takes ownership).
func (t *Tree) LearnTokens(tokens []string) *Template {
	if idx, merge := t.findBestTokens(tokens); idx >= 0 {
		tpl := t.templates[idx]
		if merge {
			mergeIntoTokens(tpl, tokens)
		}
		tpl.Count++
		return tpl
	}
	if len(t.templates) >= t.maxTemplates {
		return t.overflowTemplate()
	}
	tpl := &Template{ID: len(t.templates), Tokens: tokens, Count: 1, syms: t.internTokens(tokens)}
	t.templates = append(t.templates, tpl)
	t.buckets[len(tokens)] = append(t.buckets[len(tokens)], tpl.ID)
	return tpl
}

// internTokens returns the symbol mirror of a new template's tokens. A
// token the full table cannot take becomes Wildcard in tokens too, so
// Tokens[i] == str(syms[i]) holds for every template.
func (t *Tree) internTokens(tokens []string) []uint32 {
	syms := make([]uint32, len(tokens))
	for i, tok := range tokens {
		syms[i] = t.syms.internString(tok)
		if syms[i] == wildcardID {
			tokens[i] = Wildcard
		}
	}
	return syms
}

// LearnSyms matches symbols prepared with PrepareSyms/AppendSyms against
// the tree by integer compares, creating or refining a template as needed.
// It allocates only when the tree grows a new template (the symbols are
// copied then, so the caller's scratch slice stays reusable). Requires
// external synchronization; PrepareSyms itself does not.
func (t *Tree) LearnSyms(syms []uint32) *Template {
	if idx, merge := t.findBestSyms(syms); idx >= 0 {
		tpl := t.templates[idx]
		if merge {
			mergeIntoSyms(t, tpl, syms)
		}
		tpl.Count++
		return tpl
	}
	if len(t.templates) >= t.maxTemplates {
		return t.overflowTemplate()
	}
	ss := make([]uint32, len(syms))
	copy(ss, syms)
	tokens := make([]string, len(syms))
	for i, id := range syms {
		tokens[i] = t.syms.str(id)
	}
	tpl := &Template{ID: len(t.templates), Tokens: tokens, Count: 1, syms: ss}
	t.templates = append(t.templates, tpl)
	t.buckets[len(syms)] = append(t.buckets[len(syms)], tpl.ID)
	return tpl
}

// findBestTokens returns the index of the best-matching template and
// whether the match requires a merge (some positions disagree), or
// (-1, false). String comparison — the reference path.
func (t *Tree) findBestTokens(tokens []string) (int, bool) {
	bestIdx, bestSim := -1, 0.0
	for _, idx := range t.buckets[len(tokens)] {
		sim := similarity(t.templates[idx].Tokens, tokens)
		if sim > bestSim {
			bestSim, bestIdx = sim, idx
		}
	}
	if bestIdx >= 0 && bestSim >= t.simThreshold {
		return bestIdx, bestSim < 1
	}
	return -1, false
}

// findBestSyms is findBestTokens on interned symbols. Symbol equality is
// string equality (interning is injective), so both paths pick the same
// template.
//
// It counts equal positions as integers and stops at the first candidate
// that equals syms everywhere: the loop replaces its best only on a
// strictly greater count, so nothing later in the bucket could unseat that
// candidate. The threshold is checked once, on the best count, as the same
// float64(eq)/float64(n) the similarity would have been.
func (t *Tree) findBestSyms(syms []uint32) (int, bool) {
	n := len(syms)
	bestIdx, bestEq := -1, 0
	for _, idx := range t.buckets[n] {
		ts := t.templates[idx].syms[:n]
		eq := 0
		for i, s := range syms {
			if ts[i] == s {
				eq++
			}
		}
		if eq == n {
			return idx, false
		}
		if eq > bestEq {
			bestEq, bestIdx = eq, idx
		}
	}
	if bestIdx >= 0 && float64(bestEq)/float64(n) >= t.simThreshold {
		return bestIdx, true
	}
	return -1, false
}

// overflowTemplate lazily allocates the catch-all "other" template.
func (t *Tree) overflowTemplate() *Template {
	if t.overflow >= 0 {
		tpl := t.templates[t.overflow]
		tpl.Count++
		return tpl
	}
	tpl := &Template{ID: len(t.templates), Tokens: []string{Wildcard}, Count: 1, syms: []uint32{wildcardID}}
	t.templates = append(t.templates, tpl)
	t.overflow = tpl.ID
	return tpl
}

// similarity is the fraction of positions where the two token slices agree
// exactly (wildcard matches only wildcard). Counting template wildcards as
// automatic agreement would let heavily merged templates match everything
// and decay into all-wildcard attractors; because variable fields are
// masked before comparison, instances of one family are token-identical
// and still score 1.0 against their template.
func similarity(a, b []string) float64 {
	if len(a) != len(b) {
		return 0
	}
	if len(a) == 0 {
		return 1
	}
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

// mergeIntoTokens rewrites tpl so disagreeing positions become wildcards,
// in both representations.
func mergeIntoTokens(tpl *Template, tokens []string) {
	for i := range tpl.Tokens {
		if tpl.Tokens[i] != tokens[i] {
			tpl.Tokens[i] = Wildcard
			tpl.syms[i] = wildcardID
		}
	}
}

// mergeIntoSyms is mergeIntoTokens on the symbol path.
func mergeIntoSyms(t *Tree, tpl *Template, syms []uint32) {
	for i := range tpl.syms {
		if tpl.syms[i] != syms[i] {
			tpl.syms[i] = wildcardID
			tpl.Tokens[i] = Wildcard
		}
	}
}

// Tokenize splits a raw log message into tokens on whitespace, additionally
// separating common punctuation that glues fields to structure (commas,
// equals, brackets, quotes). Colons are kept inside tokens — IPv6
// addresses, MAC addresses, timestamps, interface unit specs like
// "ge-0/0/1:0" survive as single tokens — but trailing colons ("word:",
// "10.0.0.1:") are stripped as separators. Tokens are substrings of msg;
// no per-token copies are made.
func Tokenize(msg string) []string {
	var out []string
	n := len(msg)
	i := 0
	for i < n {
		for i < n && isSepByte(msg[i]) {
			i++
		}
		if i >= n {
			break
		}
		j := i
		for j < n && !isSepByte(msg[j]) {
			j++
		}
		end := j
		for end > i && msg[end-1] == ':' {
			end--
		}
		if end > i {
			out = append(out, msg[i:end])
		}
		i = j
	}
	return out
}

// maskTokens replaces variable-looking tokens with the wildcard and
// ASCII-lowercases the rest — the same fold the interned scanner applies,
// so the two paths produce identical token sequences on every input.
func maskTokens(tokens []string) []string {
	out := make([]string, len(tokens))
	for i, tok := range tokens {
		if IsVariableToken(tok) {
			out[i] = Wildcard
		} else {
			out[i] = lowerASCII(tok)
		}
	}
	return out
}

// IsVariableToken reports whether tok looks like a value rather than log
// structure: pure numbers, hex strings, IPv4/IPv6 addresses, interface
// names with unit numbers, durations, percentages. It counts runes; the
// scanner counts ASCII bytes in one pass and calls it only for tokens
// with multi-byte runes.
func IsVariableToken(tok string) bool {
	if tok == "" {
		return false
	}
	digits, hexLetters, letters, dots, slashes, colons, dashes := 0, 0, 0, 0, 0, 0, 0
	for _, r := range tok {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F'):
			hexLetters++
		case r == '.':
			dots++
		case r == '/':
			slashes++
		case r == ':':
			colons++
		case r == '-':
			dashes++
		case r == '%' || r == '+':
			// counts as neither
		default:
			letters++
		}
	}
	return isVariableCount(digits, hexLetters, letters, dots, slashes, colons, dashes)
}

// isVariableCount is IsVariableToken's rule over a token's counts: digits,
// hex letters (a-f, A-F), other letters (everything not counted elsewhere
// but '%' and '+'), and the field punctuation.
func isVariableCount(digits, hexLetters, otherLetters, dots, slashes, colons, dashes int) bool {
	if digits == 0 {
		// Pure-hex words like "dead" or "face" stay structural; only
		// digit-bearing tokens can be variables, except long hex with
		// colons (MAC addresses).
		return colons >= 2 && hexLetters >= 6 && otherLetters == 0
	}
	// Any token containing digits plus field punctuation is a value:
	// 10.0.0.1, ge-0/0/1, 2001:db8::1, 12:30:01.
	if dots > 0 || slashes > 0 || colons > 0 {
		return true
	}
	// Digit-dominated tokens (counters, PIDs, temperatures like 45C), or
	// digits joined by dashes.
	return digits >= hexLetters+otherLetters || dashes > 0
}

// Fingerprint returns an FNV-1a hash over the tree's exact template set —
// every template's ID, token sequence, and match count. Two trees
// fingerprint equal iff they would assign identical template IDs to
// identical inputs and have seen the same history, so artifacts that
// record template IDs (the lifecycle spool) can detect at load time that
// they were written against this very tree and not some other lineage.
// The fingerprint changes as the tree learns (growth and wildcard merges
// both count), matching the tree's not-concurrency-safe contract: compute
// it under whatever lock guards Learn. Symbol IDs are deliberately
// excluded: they depend on intern order, which concurrent preparation
// does not make deterministic — token strings are the identity.
func (t *Tree) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211 // terminator so "ab","c" ≠ "a","bc"
	}
	for _, tpl := range t.templates {
		mix(uint64(tpl.ID))
		mix(uint64(tpl.Count))
		for _, tok := range tpl.Tokens {
			mixStr(tok)
		}
	}
	mix(uint64(int64(t.overflow)))
	return h
}

// treeSnapshot is the gob wire form of a Tree. Template's symbol mirror is
// unexported and thus invisible to gob: the bytes Save writes are
// byte-identical to the pre-interning format, which the checkpoint and
// bundle formats require.
type treeSnapshot struct {
	SimThreshold float64
	MaxTemplates int
	Templates    []Template
	Overflow     int
}

// Save serializes the tree to w using gob.
func (t *Tree) Save(w io.Writer) error {
	snap := treeSnapshot{
		SimThreshold: t.simThreshold,
		MaxTemplates: t.maxTemplates,
		Overflow:     t.overflow,
	}
	for _, tpl := range t.templates {
		snap.Templates = append(snap.Templates, *tpl)
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("sigtree: encoding tree: %w", err)
	}
	return nil
}

// Load reconstructs a tree saved with Save, re-interning every template
// token into a fresh symbol table (symbol IDs are per-process; only the
// strings are wire format).
func Load(r io.Reader) (*Tree, error) {
	var snap treeSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("sigtree: decoding tree: %w", err)
	}
	// Template IDs index the template list (buckets and the overflow hold
	// IDs), so a tree whose IDs are not its positions must not serve.
	for i := range snap.Templates {
		if id := snap.Templates[i].ID; id != i {
			return nil, fmt.Errorf("sigtree: template %d carries ID %d", i, id)
		}
	}
	if snap.Overflow < -1 || snap.Overflow >= len(snap.Templates) {
		return nil, fmt.Errorf("sigtree: overflow template %d of %d", snap.Overflow, len(snap.Templates))
	}
	t := New()
	t.simThreshold = snap.SimThreshold
	t.maxTemplates = snap.MaxTemplates
	t.overflow = snap.Overflow
	for i := range snap.Templates {
		cp := snap.Templates[i]
		cp.syms = t.internTokens(cp.Tokens)
		t.templates = append(t.templates, &cp)
		t.buckets[len(cp.Tokens)] = append(t.buckets[len(cp.Tokens)], cp.ID)
	}
	return t, nil
}
