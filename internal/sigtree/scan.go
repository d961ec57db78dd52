package sigtree

// TokenBuf is per-worker scratch for the interned prepare path: the symbol
// output slice and the lowercase byte buffer both grow once and are reused
// across messages. A TokenBuf must not be shared between goroutines; the
// tree itself may be (prepare only touches the lock-free symbol table).
type TokenBuf struct {
	syms []uint32
	low  []byte
}

// PrepareSyms tokenizes, masks, ASCII-lowercases, and interns msg in one
// pass over the raw bytes, with no per-token copies — structural tokens are
// looked up in the symbol table straight from a reusable lowercase buffer.
// The returned slice is tb's scratch, valid until the next
// PrepareSyms/AppendSyms call on tb.
//
// It cannot fail: a structural token the full symbol table does not hold
// becomes wildcardID (see symLimit). The bool is always true; it stays
// only because bench/layers.go reads it, and goes when ROADMAP item 1 lets
// that file drop it.
func (t *Tree) PrepareSyms(msg string, tb *TokenBuf) ([]uint32, bool) {
	syms, ok := t.AppendSyms(tb.syms[:0], msg, tb)
	tb.syms = syms[:0:cap(syms)]
	return syms, ok
}

// AppendSyms appends msg's prepared symbols to dst and returns the grown
// slice — the arena form of PrepareSyms for callers batching many messages
// into one backing array (offsets into dst stay valid across growth). The
// bool is always true, as for PrepareSyms.
func (t *Tree) AppendSyms(dst []uint32, msg string, tb *TokenBuf) ([]uint32, bool) {
	n0 := len(dst)
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
		// Trailing "word:" colons are separators; interior colons (IPv6,
		// MACs, hh:mm:ss, interface unit specs) stay in the token.
		end := j
		for end > i && msg[end-1] == ':' {
			end--
		}
		if end > i {
			tok := msg[i:end]
			id := wildcardID
			if !IsVariableToken(tok) {
				tb.low = appendLowerASCII(tb.low[:0], tok)
				id = t.syms.intern(tb.low)
			}
			dst = append(dst, id)
		}
		i = j
	}
	if len(dst) == n0 {
		// Canonical empty form, mirroring PrepareTokens.
		dst = append(dst, wildcardID)
	}
	return dst, true
}

// isSepByte reports whether b splits tokens. Colons are handled by the
// trailing-strip rule in the scanners, not here. All separators are ASCII,
// so byte-wise scanning slices multi-byte UTF-8 runes correctly.
func isSepByte(b byte) bool {
	switch b {
	case ' ', '\t', '\n', '\r', ',', '=', '[', ']', '(', ')', '"', ';':
		return true
	}
	return false
}

// appendLowerASCII appends s to dst with ASCII letters lowercased. The
// reference path (maskTokens) applies the same ASCII-only fold, so the two
// paths agree byte-for-byte on every input, not just the ASCII corpus.
func appendLowerASCII(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// lowerASCII is appendLowerASCII for the string path: it returns s itself
// when nothing folds, so already-lowercase tokens cost no copy.
func lowerASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			b := make([]byte, len(s))
			copy(b, s)
			for j := i; j < len(b); j++ {
				if b[j] >= 'A' && b[j] <= 'Z' {
					b[j] += 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return s
}
