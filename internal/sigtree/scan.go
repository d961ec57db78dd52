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
//
// Each byte is looked at once: its class, from byteClass, ends the token
// at a separator and otherwise bumps that class's count, while the byte
// goes lowercased into tb.low. The counts decide IsVariableToken's rule
// without a second pass; a token holding a non-ASCII byte, where bytes and
// runes count differently, is handed to IsVariableToken itself.
func (t *Tree) AppendSyms(dst []uint32, msg string, tb *TokenBuf) ([]uint32, bool) {
	n0 := len(dst)
	n := len(msg)
	i := 0
	for i < n {
		for i < n && byteClass[msg[i]] == clsSep {
			i++
		}
		if i >= n {
			break
		}
		var cnt [clsCount]int
		low := tb.low[:0]
		j := i
		for ; j < n; j++ {
			c := msg[j]
			k := byteClass[c]
			if k == clsSep {
				break
			}
			cnt[k&(clsCount-1)]++
			low = append(low, lowerByte[c])
		}
		tb.low = low
		// Trailing "word:" colons are separators; interior colons (IPv6,
		// MACs, hh:mm:ss, interface unit specs) stay in the token.
		end := j
		for end > i && msg[end-1] == ':' {
			end--
		}
		if end > i {
			cnt[clsColon] -= j - end
			var variable bool
			if cnt[clsHigh] > 0 {
				variable = IsVariableToken(msg[i:end])
			} else {
				variable = isVariableCount(cnt[clsDigit], cnt[clsHex], cnt[clsLetter],
					cnt[clsDot], cnt[clsSlash], cnt[clsColon], cnt[clsDash])
			}
			id := wildcardID
			if !variable {
				id = t.syms.intern(low[:end-i])
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

// Byte classes for the scanner: what IsVariableToken counts an ASCII byte
// as, plus separators and the bytes of multi-byte runes.
const (
	clsNeutral = iota // '%' and '+': counted as nothing
	clsSep            // splits tokens (isSepByte)
	clsDigit          // 0-9
	clsHex            // a-f, A-F
	clsLetter         // g-z, G-Z and every other ASCII byte
	clsDot
	clsSlash
	clsColon
	clsDash
	clsHigh // 0x80-0xff: the token is classified rune by rune
	// clsCount is a power of two above every class, so a masked class
	// indexes the count array without a bounds check.
	clsCount = 16
)

// byteClass and lowerByte are the scanner's per-byte tables.
var byteClass, lowerByte = func() (cls, low [256]uint8) {
	for c := 0; c < 256; c++ {
		b := byte(c)
		low[c] = b
		switch {
		case isSepByte(b):
			cls[c] = clsSep
		case b >= 0x80:
			cls[c] = clsHigh
		case b >= '0' && b <= '9':
			cls[c] = clsDigit
		case b >= 'a' && b <= 'f', b >= 'A' && b <= 'F':
			cls[c] = clsHex
		case b == '.':
			cls[c] = clsDot
		case b == '/':
			cls[c] = clsSlash
		case b == ':':
			cls[c] = clsColon
		case b == '-':
			cls[c] = clsDash
		case b == '%', b == '+':
			cls[c] = clsNeutral
		default:
			cls[c] = clsLetter
		}
		if b >= 'A' && b <= 'Z' {
			low[c] = b + 'a' - 'A'
		}
	}
	return cls, low
}()

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

// lowerASCII is the reference path's ASCII-only fold, the one lowerByte
// applies in the scanner, so the two paths agree byte-for-byte on every
// input. It returns s itself when nothing folds.
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
