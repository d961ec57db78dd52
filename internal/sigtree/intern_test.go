package sigtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// internCorpus is a realistic mixed corpus: router syslog families with
// variable fields, colon-bearing tokens (IPv6, MACs, timestamps, interface
// unit specs), trailing "word:" separators, and punctuation glue.
func internCorpus() []string {
	var msgs []string
	for i := 0; i < 200; i++ {
		msgs = append(msgs,
			fmt.Sprintf("SNMP_TRAP_LINK_DOWN ifIndex %d ifOperStatus down interface ge-0/0/%d", 500+i, i%8),
			fmt.Sprintf("bgp peer 10.1.%d.%d: state change to Idle", i%256, (i*7)%256),
			fmt.Sprintf("mac learned 00:1b:44:11:3a:%02x on ge-0/0/%d:0", i%256, i%4),
			fmt.Sprintf("neighbor 2001:db8::%x expired at 12:30:%02d", i%16, i%60),
			fmt.Sprintf("kernel temperature sensor reads %dC on fpc %d", 30+i%40, i%4),
			"Error: chassis fan tray removed",
		)
	}
	return msgs
}

// resolveSyms maps prepared symbols back to strings through the tree's
// table, the form comparable against PrepareTokens output.
func resolveSyms(t *Tree, syms []uint32) []string {
	out := make([]string, len(syms))
	for i, id := range syms {
		out[i] = t.syms.str(id)
	}
	return out
}

func TestColonTokenization(t *testing.T) {
	cases := map[string][]string{
		// Interior colons survive (the documented behavior the old
		// implementation contradicted).
		"neighbor 2001:db8::1 down":     {"neighbor", "2001:db8::1", "down"},
		"mac 00:1b:44:11:3a:b7 learned": {"mac", "00:1b:44:11:3a:b7", "learned"},
		"poll at 12:30:01 done":         {"poll", "at", "12:30:01", "done"},
		"interface ge-0/0/1:0 flapped":  {"interface", "ge-0/0/1:0", "flapped"},
		// Trailing colons are separators, however many.
		"rpd: session closed":  {"rpd", "session", "closed"},
		"weird:: double colon": {"weird", "double", "colon"},
		"::":                   nil,
		"a:":                   {"a"},
	}
	for in, want := range cases {
		got := Tokenize(in)
		if len(got) != len(want) {
			t.Fatalf("Tokenize(%q)=%v want %v", in, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Tokenize(%q)=%v want %v", in, got, want)
			}
		}
	}
}

// The interned scanner and the reference string path must produce the same
// masked token sequence for every input.
func TestPrepareSymsEquivalence(t *testing.T) {
	tr := New()
	var tb TokenBuf
	inputs := append(internCorpus(),
		"", "   ", "::", ":x:", "x:",
		"unicode schnittstelle zwölf down",
		"mixed ÜPPER case TOKENS Here",
		string([]byte{0xff, 0xfe, ' ', 'o', 'k'}), // invalid UTF-8
		"spaced\tout\nlines\r",
		"a,b=c [d] (e) \"f\"; g",
	)
	for _, msg := range inputs {
		want := PrepareTokens(msg)
		syms, ok := tr.PrepareSyms(msg, &tb)
		if !ok {
			t.Fatalf("PrepareSyms(%q) reported a full table", msg)
		}
		got := resolveSyms(tr, syms)
		if len(got) != len(want) {
			t.Fatalf("PrepareSyms(%q)=%v want %v", msg, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("PrepareSyms(%q)=%v want %v", msg, got, want)
			}
		}
	}
}

// FuzzScannerEquivalence drives the byte-oriented scanner and the legacy
// string path with arbitrary bytes: identical masked token sequences, and
// identical template IDs once learned.
func FuzzScannerEquivalence(f *testing.F) {
	for _, s := range internCorpus()[:24] {
		f.Add(s)
	}
	f.Add("")
	f.Add("x: y:: z:::")
	f.Add("2001:db8::1 00:11:22:33:44:55 12:30:01")
	f.Add("ÜNÏCODE zwölf µs")
	f.Add(string([]byte{0x80, 0xc3, 0x28, 0xff}))
	// Tokens where byte and rune counts diverge: digits beside multi-byte
	// runes, lone continuation bytes among digits, and a 3-byte rune in an
	// otherwise hex token.
	f.Add("latency 12µs on ge-0/0/1é")
	f.Add("µ12 12µ 1µ2 éé1 1é")
	f.Add(string([]byte{'1', 0x80, '2', ' ', '1', '2', 0xbf, 0xbf, ' ', 0xa0, '7', ':'}))
	f.Add("deadbeef\u20ac01 00:11:22:\u20ac:44:55 cafe\u20acbabe")
	// The lines that, learned in order, merge two templates into duplicates
	// (FuzzMatcherOracle learns them into one tree).
	for _, s := range mergeSequence {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, msg string) {
		want := PrepareTokens(msg)
		tr := New()
		var tb TokenBuf
		syms, _ := tr.PrepareSyms(msg, &tb)
		got := resolveSyms(tr, syms)
		if len(got) != len(want) {
			t.Fatalf("scanner %v != reference %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("scanner %v != reference %v", got, want)
			}
		}
		// Same message learned through both paths lands on one template.
		a := tr.LearnSyms(syms)
		b := tr.LearnTokens(PrepareTokens(msg))
		if a.ID != b.ID || b.Count != 2 {
			t.Fatalf("paths diverged: LearnSyms ID %d, LearnTokens ID %d count %d", a.ID, b.ID, b.Count)
		}
	})
}

// Learning a shuffled corpus through LearnSyms must grow a tree
// fingerprint-identical to one grown through LearnTokens: same template
// IDs, same token sequences, same counts, message by message.
func TestLearnSymsEquivalentToLearnTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	msgs := internCorpus()
	rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })

	ref := New()
	interned := New()
	var tb TokenBuf
	for i, msg := range msgs {
		a := ref.LearnTokens(PrepareTokens(msg))
		syms, ok := interned.PrepareSyms(msg, &tb)
		if !ok {
			t.Fatalf("PrepareSyms(%q) reported a full table", msg)
		}
		b := interned.LearnSyms(syms)
		if a.ID != b.ID {
			t.Fatalf("msg %d %q: template ID %d (strings) vs %d (syms)", i, msg, a.ID, b.ID)
		}
		if ref.Fingerprint() != interned.Fingerprint() {
			t.Fatalf("msg %d %q: fingerprints diverged", i, msg)
		}
	}
	if ref.Len() != interned.Len() {
		t.Fatalf("template counts diverged: %d vs %d", ref.Len(), interned.Len())
	}
}

// Mixing both learning paths on one tree must behave like either alone:
// the dual template representation stays in sync through merges.
func TestMixedPathLearning(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	msgs := internCorpus()
	ref := New()
	mixed := New()
	var tb TokenBuf
	for _, msg := range msgs {
		a := ref.LearnTokens(PrepareTokens(msg))
		var b *Template
		if rng.Intn(2) == 0 {
			syms, ok := mixed.PrepareSyms(msg, &tb)
			if !ok {
				t.Fatalf("full table on %q", msg)
			}
			b = mixed.LearnSyms(syms)
		} else {
			b = mixed.LearnTokens(PrepareTokens(msg))
		}
		if a.ID != b.ID {
			t.Fatalf("%q: ID %d vs %d", msg, a.ID, b.ID)
		}
	}
	if ref.Fingerprint() != mixed.Fingerprint() {
		t.Fatal("mixed-path tree diverged from reference")
	}
}

// Save/Load round-trips the symbol mirror: a loaded tree must serve the
// interned path and agree with the original on template IDs.
func TestLoadRebuildsSymbols(t *testing.T) {
	tr := New()
	for _, msg := range internCorpus() {
		tr.Learn(msg)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var tb TokenBuf
	for _, msg := range internCorpus()[:50] {
		want, ok := tr.Match(msg)
		if !ok {
			t.Fatalf("original tree lost %q", msg)
		}
		syms, ok := loaded.PrepareSyms(msg, &tb)
		if !ok {
			t.Fatalf("loaded tree's table full on %q", msg)
		}
		got := loaded.LearnSyms(syms)
		if got.ID != want.ID {
			t.Fatalf("%q: loaded LearnSyms ID %d, original %d", msg, got.ID, want.ID)
		}
	}
}

// checkSymMirror asserts the invariant every template keeps, full table
// included: Tokens[i] is the string of syms[i].
func checkSymMirror(t *testing.T, tr *Tree) {
	t.Helper()
	for _, tpl := range tr.templates {
		if len(tpl.syms) != len(tpl.Tokens) {
			t.Fatalf("template %d: %d syms for %d tokens", tpl.ID, len(tpl.syms), len(tpl.Tokens))
		}
		for i, id := range tpl.syms {
			if got := tr.syms.str(id); got != tpl.Tokens[i] {
				t.Fatalf("template %d position %d: token %q, symbol %d is %q", tpl.ID, i, tpl.Tokens[i], id, got)
			}
		}
	}
}

// A full symbol table treats an unseen structural token as a variable
// field: the scanner keeps working, allocation-free, and what was interned
// before the cap keeps matching.
func TestSymTabFullOverflowsToWildcard(t *testing.T) {
	old := symLimit
	symLimit = 8
	defer func() { symLimit = old }()

	tr := New()
	var tb TokenBuf
	// Fill the table: 7 structural tokens + wildcard = 8.
	if _, ok := tr.PrepareSyms("one two three four five six seven", &tb); !ok {
		t.Fatal("table filled before the limit")
	}
	if n, o := tr.SymCount(), tr.SymOverflows(); n != 8 || o != 0 {
		t.Fatalf("SymCount=%d SymOverflows=%d want 8, 0", n, o)
	}
	// A fresh structural token becomes the wildcard, and is counted.
	syms, ok := tr.PrepareSyms("eight", &tb)
	if !ok || len(syms) != 1 || syms[0] != wildcardID {
		t.Fatalf("PrepareSyms(eight)=%v %v want [wildcardID] true", syms, ok)
	}
	if n, o := tr.SymCount(), tr.SymOverflows(); n != 8 || o != 1 {
		t.Fatalf("SymCount=%d SymOverflows=%d want 8, 1", n, o)
	}
	// Interned and variable tokens still resolve.
	syms, ok = tr.PrepareSyms("one 12345 SEVEN", &tb)
	if got := resolveSyms(tr, syms); !ok || len(got) != 3 || got[0] != "one" || got[1] != Wildcard || got[2] != "seven" {
		t.Fatalf("interned+masked prepare: %v %v", got, ok)
	}
	// Un-internable messages keep template identity across repeats, by
	// either entry point, and collapse by length as variable fields do.
	a := tr.Learn("eight nine ten")
	syms, _ = tr.PrepareSyms("eight nine ten", &tb)
	b := tr.LearnSyms(syms)
	c := tr.Learn("eleven twelve thirteen")
	if a.ID != b.ID || a.ID != c.ID || c.Count != 3 {
		t.Fatalf("un-internable template identity broken: %d %d %d (count %d)", a.ID, b.ID, c.ID, c.Count)
	}
	if a.String() != "* * *" {
		t.Fatalf("un-internable template is %q", a)
	}
	// An internable message does not merge into it.
	if d := tr.Learn("one 99 seven"); d.ID == a.ID || d.String() != "one * seven" {
		t.Fatalf("internable message landed on template %d %q", d.ID, d)
	}

	// A shuffled corpus through all three learners, then a tree saved
	// under the default cap and loaded under this one: the mirror holds.
	rng := rand.New(rand.NewSource(3))
	msgs := internCorpus()
	rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	for i, msg := range msgs {
		switch i % 3 {
		case 0:
			tr.Learn(msg)
		case 1:
			syms, _ = tr.PrepareSyms(msg, &tb)
			tr.LearnSyms(syms)
		case 2:
			tr.LearnTokens(PrepareTokens(msg))
		}
	}
	checkSymMirror(t, tr)
	if tr.SymCount() != 8 {
		t.Fatalf("table grew past the cap: %d", tr.SymCount())
	}
	symLimit = old
	big := New()
	for _, msg := range msgs {
		big.Learn(msg)
	}
	var buf bytes.Buffer
	if err := big.Save(&buf); err != nil {
		t.Fatal(err)
	}
	symLimit = 8
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkSymMirror(t, loaded)

	// Once every template is learned, a message costs no allocation on a
	// full table. (Merges can unseat an earlier match, so replay to a fixed
	// point first.)
	var arena []uint32
	learnAll := func() {
		for _, msg := range msgs {
			arena, ok = tr.AppendSyms(arena[:0], msg, &tb)
			if !ok {
				t.Fatalf("AppendSyms(%q) failed on a full table", msg)
			}
			tr.LearnSyms(arena)
		}
	}
	for n := -1; n != tr.Len(); {
		n = tr.Len()
		learnAll()
	}
	if avg := testing.AllocsPerRun(10, learnAll); avg != 0 {
		t.Fatalf("full table, all templates learned: %v allocs per corpus pass, want 0", avg)
	}
}

// Concurrent interning: many goroutines hammer the slow path with fresh
// tokens while others replay a hot vocabulary through the lock-free path.
// Every observed (token → ID) binding must be globally consistent. Run
// under -race via make test-race.
func TestInternConcurrentRace(t *testing.T) {
	tr := New()
	const workers = 8
	const iters = 400
	var wg sync.WaitGroup
	bindings := make([]map[string]uint32, workers)
	for w := 0; w < workers; w++ {
		bindings[w] = make(map[string]uint32)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tb TokenBuf
			for i := 0; i < iters; i++ {
				var msg string
				if w%2 == 0 {
					// Fresh vocabulary: slow-path interning. Some tokens
					// collide across goroutines on purpose.
					msg = fmt.Sprintf("fresh%d stream%d shared%d", w, i, i%32)
				} else {
					// Hot vocabulary: lock-free reads.
					msg = "link flap detected on backbone"
				}
				syms, ok := tr.PrepareSyms(msg, &tb)
				if !ok {
					t.Error("table unexpectedly full")
					return
				}
				toks := PrepareTokens(msg)
				for j, id := range syms {
					if id == wildcardID {
						continue
					}
					if prev, seen := bindings[w][toks[j]]; seen && prev != id {
						t.Errorf("token %q bound to %d and %d", toks[j], prev, id)
						return
					}
					bindings[w][toks[j]] = id
				}
			}
		}(w)
	}
	wg.Wait()
	// Cross-goroutine consistency: merge all observed bindings.
	merged := make(map[string]uint32)
	for _, m := range bindings {
		for tok, id := range m {
			if prev, seen := merged[tok]; seen && prev != id {
				t.Fatalf("token %q bound to %d and %d across goroutines", tok, prev, id)
			}
			merged[tok] = id
		}
	}
	// And against the table itself.
	for tok, id := range merged {
		if got := tr.syms.str(id); got != tok {
			t.Fatalf("str(%d)=%q want %q", id, got, tok)
		}
	}
}

// --- old-vs-interned micro-benchmarks (tracked in BENCH_serving.json) ---

const benchLine = "SNMP_TRAP_LINK_DOWN ifIndex 531 ifOperStatus down interface ge-0/0/5"

// BenchmarkPrepareTokens is the legacy string tokenize+mask path.
func BenchmarkPrepareTokens(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PrepareTokens(benchLine)
	}
}

// BenchmarkPrepareTokensInterned is the byte-oriented interning scanner.
func BenchmarkPrepareTokensInterned(b *testing.B) {
	tr := New()
	var tb TokenBuf
	tr.PrepareSyms(benchLine, &tb) // warm the table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.PrepareSyms(benchLine, &tb)
	}
}

// benchTree grows a tree with a realistic template population.
func benchTree(b *testing.B) *Tree {
	b.Helper()
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Learn(fmt.Sprintf("family %d message with port ge-0/0/%d and count %d", i%10, i%8, i))
	}
	return tr
}

// BenchmarkSigtreeMatch is tokenize+match via position-wise string compares.
func BenchmarkSigtreeMatch(b *testing.B) {
	tr := benchTree(b)
	toks := PrepareTokens("family 3 message with port ge-0/0/5 and count 77")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.LearnTokens(toks)
	}
}

// BenchmarkSigtreeMatchInterned is the same match on uint32 symbol IDs.
func BenchmarkSigtreeMatchInterned(b *testing.B) {
	tr := benchTree(b)
	var tb TokenBuf
	syms, ok := tr.PrepareSyms("family 3 message with port ge-0/0/5 and count 77", &tb)
	if !ok {
		b.Fatal("table full")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.LearnSyms(syms)
	}
}
