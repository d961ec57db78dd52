package sigtree

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// Match finds the template for msg without learning; the boolean is false
// when no existing template is similar enough. The served path only ever
// learns, so this is the tests' read-only probe of a tree.
func (t *Tree) Match(msg string) (*Template, bool) {
	if idx, _ := t.findBestTokens(PrepareTokens(msg)); idx >= 0 {
		return t.templates[idx], true
	}
	return nil, false
}

func TestTokenize(t *testing.T) {
	cases := map[string][]string{
		"interface ge-0/0/1 down":       {"interface", "ge-0/0/1", "down"},
		"a,b=c [d] (e) \"f\"; g":        {"a", "b", "c", "d", "e", "f", "g"},
		"   spaced\tout\nlines ":        {"spaced", "out", "lines"},
		"":                              nil,
		"BGP peer 10.0.0.1: state Idle": {"BGP", "peer", "10.0.0.1", "state", "Idle"},
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

func TestIsVariableToken(t *testing.T) {
	variables := []string{
		"10.0.0.1", "192.168.255.254", "2001:db8::1", "fe80::1",
		"ge-0/0/1", "xe-1/2/3.100", "12:30:01", "12345", "99",
		"0x1f", "45C", "00:1b:44:11:3a:b7", "4/8",
	}
	for _, tok := range variables {
		if !IsVariableToken(tok) {
			t.Errorf("IsVariableToken(%q)=false, want true", tok)
		}
	}
	structural := []string{
		"interface", "down", "BGP", "peer", "state", "Idle", "error",
		"chassis-control", "kernel", "daemon", "face", "dead", "up",
	}
	for _, tok := range structural {
		if IsVariableToken(tok) {
			t.Errorf("IsVariableToken(%q)=true, want false", tok)
		}
	}
}

func TestLearnAssignsStableIDs(t *testing.T) {
	tr := New()
	a := tr.Learn("interface ge-0/0/1 down")
	b := tr.Learn("BGP peer 10.0.0.1 state change")
	a2 := tr.Learn("interface xe-2/0/0 down")
	if a.ID != 0 || b.ID != 1 {
		t.Fatalf("IDs not assigned in order: %d %d", a.ID, b.ID)
	}
	if a2.ID != a.ID {
		t.Fatalf("same-shape messages got different templates: %d vs %d", a2.ID, a.ID)
	}
	if a.Count != 2 {
		t.Fatalf("count not incremented: %d", a.Count)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len=%d want 2", tr.Len())
	}
}

func TestVariableFieldsBecomeWildcards(t *testing.T) {
	tr := New()
	tpl := tr.Learn("interface ge-0/0/1 down")
	if tpl.Tokens[1] != Wildcard {
		t.Fatalf("interface name should be masked: %v", tpl.Tokens)
	}
	if tpl.Tokens[0] != "interface" || tpl.Tokens[2] != "down" {
		t.Fatalf("structure tokens must survive: %v", tpl.Tokens)
	}
	if tpl.String() != "interface * down" {
		t.Fatalf("String()=%q", tpl.String())
	}
}

func TestMergeGeneralizesDisagreeingPositions(t *testing.T) {
	tr := New()
	tr.Learn("service restart requested by operator alice")
	tpl := tr.Learn("service restart requested by operator bob")
	if tpl.Tokens[5] != Wildcard {
		t.Fatalf("operator name should generalize to wildcard: %v", tpl.Tokens)
	}
	if tr.Len() != 1 {
		t.Fatalf("messages should share one template, got %d", tr.Len())
	}
}

func TestDissimilarMessagesGetDistinctTemplates(t *testing.T) {
	tr := New()
	tr.Learn("BGP session established with peer")
	tr.Learn("fan tray removed from slot now")
	if tr.Len() != 2 {
		t.Fatalf("unrelated messages merged: %d templates", tr.Len())
	}
}

func TestDifferentLengthsNeverMerge(t *testing.T) {
	tr := New()
	a := tr.Learn("link up")
	b := tr.Learn("link up on port")
	if a.ID == b.ID {
		t.Fatal("different token counts must not share a template")
	}
}

func TestMatchDoesNotLearn(t *testing.T) {
	tr := New()
	tr.Learn("interface ge-0/0/1 down")
	tpl, ok := tr.Match("interface xe-9/9/9 down")
	if !ok || tpl.ID != 0 {
		t.Fatalf("Match failed: %v %v", tpl, ok)
	}
	if tpl.Count != 1 {
		t.Fatalf("Match must not increment count: %d", tpl.Count)
	}
	if _, ok := tr.Match("completely novel message here"); ok {
		t.Fatal("Match invented a template")
	}
	if tr.Len() != 1 {
		t.Fatal("Match must not create templates")
	}
}

func TestWildcardLeadRebucketing(t *testing.T) {
	tr := New()
	// Force the lead token to generalize.
	tr.Learn("alpha common tail here xx")
	tr.Learn("beta common tail here xx")
	// Now a third lead must still find the generalized template.
	tpl := tr.Learn("gamma common tail here xx")
	if tr.Len() != 1 {
		t.Fatalf("expected single generalized template, got %d", tr.Len())
	}
	if tpl.Tokens[0] != Wildcard {
		t.Fatalf("lead should be wildcard: %v", tpl.Tokens)
	}
}

func TestMaxTemplatesOverflow(t *testing.T) {
	tr := New()
	tr.maxTemplates = 3
	tr.Learn("aaa bbb ccc")
	tr.Learn("ddd eee fff ggg")
	tr.Learn("hhh iii")
	over1 := tr.Learn("jjj kkk lll mmm nnn")
	over2 := tr.Learn("ooo ppp qqq rrr sss ttt")
	if over1.ID != over2.ID {
		t.Fatalf("overflow messages must share the catch-all template: %d vs %d", over1.ID, over2.ID)
	}
	if over1.Count != 2 {
		t.Fatalf("overflow count=%d want 2", over1.Count)
	}
	if tr.Len() != 4 { // 3 + overflow
		t.Fatalf("Len=%d want 4", tr.Len())
	}
}

func TestEmptyMessage(t *testing.T) {
	tr := New()
	tpl := tr.Learn("")
	if tpl == nil || len(tpl.Tokens) != 1 || tpl.Tokens[0] != Wildcard {
		t.Fatalf("empty message should map to wildcard template: %+v", tpl)
	}
	tpl2 := tr.Learn("   ")
	if tpl2.ID != tpl.ID {
		t.Fatal("whitespace-only should share the empty template")
	}
}

func TestTemplateByID(t *testing.T) {
	tr := New()
	tr.Learn("one two three")
	if tr.TemplateByID(0) == nil {
		t.Fatal("TemplateByID(0) nil")
	}
	if tr.TemplateByID(-1) != nil || tr.TemplateByID(99) != nil {
		t.Fatal("out-of-range IDs must return nil")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := New()
	tr.simThreshold, tr.maxTemplates = 0.7, 100
	msgs := []string{
		"interface ge-0/0/1 down",
		"interface xe-1/0/0 down",
		"BGP peer 10.0.0.1 state Idle",
		"chassis fan 3 failed",
	}
	for _, m := range msgs {
		tr.Learn(m)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != tr.Len() {
		t.Fatalf("Len mismatch: %d vs %d", loaded.Len(), tr.Len())
	}
	if loaded.simThreshold != 0.7 || loaded.maxTemplates != 100 {
		t.Fatalf("Load dropped the saved limits: %v %d", loaded.simThreshold, loaded.maxTemplates)
	}
	// The loaded tree must match the same messages to the same IDs.
	for _, m := range msgs {
		want, ok1 := tr.Match(m)
		got, ok2 := loaded.Match(m)
		if ok1 != ok2 || (ok1 && want.ID != got.ID) {
			t.Fatalf("Match(%q) diverged after reload", m)
		}
	}
}

func TestLoadCorrupt(t *testing.T) {
	if _, err := Load(strings.NewReader("not gob")); err == nil {
		t.Fatal("expected error")
	}
}

// Learning the same message twice must be idempotent on template shape.
func TestLearnIdempotent(t *testing.T) {
	f := func(words []string) bool {
		if len(words) == 0 || len(words) > 10 {
			return true
		}
		var clean []string
		for _, w := range words {
			w = strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' {
					return r
				}
				return -1
			}, strings.ToLower(w))
			if w != "" {
				clean = append(clean, w)
			}
		}
		msg := strings.Join(clean, " ")
		tr := New()
		a := tr.Learn(msg)
		b := tr.Learn(msg)
		return a.ID == b.ID && b.Count == 2 && tr.Len() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Counts must sum to the number of Learn calls.
func TestCountConservation(t *testing.T) {
	tr := New()
	n := 0
	for i := 0; i < 50; i++ {
		tr.Learn(fmt.Sprintf("event number %d on port ge-0/0/%d", i, i%4))
		n++
	}
	var total int
	for _, tpl := range tr.templates {
		total += tpl.Count
	}
	if total != n {
		t.Fatalf("count conservation violated: %d vs %d", total, n)
	}
}

// Realistic router syslog corpus: the tree must produce far fewer
// templates than messages and match formatted variants consistently.
func TestRouterCorpusCompression(t *testing.T) {
	tr := New()
	var msgs []string
	for i := 0; i < 300; i++ {
		msgs = append(msgs,
			fmt.Sprintf("SNMP_TRAP_LINK_DOWN ifIndex %d ifAdminStatus up ifOperStatus down snmp-interface ge-0/0/%d", 500+i, i%8),
			fmt.Sprintf("bgp_read_v4_update peer 10.1.%d.%d NOTIFICATION received", i%256, (i*7)%256),
			fmt.Sprintf("CHASSISD_SNMP_TRAP fan %d status check", i%6),
			fmt.Sprintf("kernel temperature sensor reads %dC on fpc %d", 30+i%40, i%4),
		)
	}
	for _, m := range msgs {
		tr.Learn(m)
	}
	if tr.Len() > 12 {
		t.Fatalf("template explosion: %d templates for 4 message families", tr.Len())
	}
	// All four families must be distinguishable.
	ids := map[int]bool{}
	for _, m := range msgs[:4] {
		tpl, ok := tr.Match(m)
		if !ok {
			t.Fatalf("unmatched message %q", m)
		}
		ids[tpl.ID] = true
	}
	if len(ids) != 4 {
		t.Fatalf("families collapsed: %d distinct IDs", len(ids))
	}
}

func BenchmarkLearn(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Learn(fmt.Sprintf("SNMP_TRAP_LINK_DOWN ifIndex %d ifOperStatus down interface ge-0/0/%d", i%1000, i%8))
	}
}
