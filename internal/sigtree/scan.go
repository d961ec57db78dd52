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
// Each byte is looked at once: its entry in classInc ends the token at a
// separator and otherwise is added to one packed counter, an 8-bit field
// per byte class, while the byte goes lowercased into tb.low at its own
// offset, so a token's lowered form is a slice of tb.low. The fields
// decide IsVariableToken's rule without a second pass. A token too long
// for the fields, or holding a non-ASCII byte, where bytes and runes count
// differently, is handed to IsVariableToken itself.
func (t *Tree) AppendSyms(dst []uint32, msg string, tb *TokenBuf) ([]uint32, bool) {
	n0 := len(dst)
	n := len(msg)
	if cap(tb.low) < n {
		tb.low = make([]byte, n)
	}
	low := tb.low[:n] // low[j] is msg[j] lowercased, for the bytes of tokens
	i := 0
	for i < n {
		for i < n && classInc[msg[i]] == sepInc {
			i++
		}
		if i >= n {
			break
		}
		var cnt uint64
		j := i
		for ; j < n; j++ {
			c := msg[j]
			inc := classInc[c]
			if inc == sepInc {
				break
			}
			cnt += inc
			low[j] = lowerByte[c]
		}
		// Trailing "word:" colons are separators; interior colons (IPv6,
		// MACs, hh:mm:ss, interface unit specs) stay in the token.
		end := j
		for end > i && msg[end-1] == ':' {
			end--
		}
		if end > i {
			var variable bool
			if j-i > 0xff || field(cnt, clsHigh) > 0 {
				variable = IsVariableToken(msg[i:end])
			} else {
				// No field overflowed, and the colon field counts the
				// stripped trailing colons too.
				cnt -= uint64(j-end) << (8 * clsColon)
				variable = isVariableCount(field(cnt, clsDigit), field(cnt, clsHex), field(cnt, clsLetter),
					field(cnt, clsDot), field(cnt, clsSlash), field(cnt, clsColon), field(cnt, clsDash))
			}
			id := wildcardID
			if !variable {
				id = t.syms.intern(low[i:end])
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

// Byte classes for the scanner, each the index of its 8-bit field in the
// packed counter: what IsVariableToken counts an ASCII byte as, and the
// bytes of multi-byte runes. '%' and '+' count as nothing.
const (
	clsDigit  = iota // 0-9
	clsHex           // a-f, A-F
	clsLetter        // g-z, G-Z and every other ASCII byte
	clsDot
	clsSlash
	clsColon
	clsDash
	clsHigh // 0x80-0xff: the token is classified rune by rune
)

// sepInc is classInc's entry for a separator (isSepByte): no other entry
// equals it, and it is only compared, never added.
const sepInc = ^uint64(0)

// field reads class cls's count out of a packed counter.
func field(cnt uint64, cls int) int { return int(cnt >> (8 * cls) & 0xff) }

// classInc and lowerByte are the scanner's per-byte tables: what a byte
// adds to the packed counter (sepInc for a separator), and its ASCII
// lowercase.
var classInc, lowerByte = func() (inc [256]uint64, low [256]uint8) {
	for c := 0; c < 256; c++ {
		b := byte(c)
		low[c] = b
		cls := -1
		switch {
		case isSepByte(b):
			inc[c] = sepInc
			continue
		case b >= 0x80:
			cls = clsHigh
		case b >= '0' && b <= '9':
			cls = clsDigit
		case b >= 'a' && b <= 'f', b >= 'A' && b <= 'F':
			cls = clsHex
		case b == '.':
			cls = clsDot
		case b == '/':
			cls = clsSlash
		case b == ':':
			cls = clsColon
		case b == '-':
			cls = clsDash
		case b == '%', b == '+':
		default:
			cls = clsLetter
		}
		if cls >= 0 {
			inc[c] = 1 << (8 * cls)
		}
		if b >= 'A' && b <= 'Z' {
			low[c] = b + 'a' - 'A'
		}
	}
	return inc, low
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
