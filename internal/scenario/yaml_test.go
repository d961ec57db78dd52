package scenario

import (
	"strings"
	"testing"
)

// get returns the value for key, or nil.
func (n *yNode) get(key string) *yNode {
	for i := range n.entries {
		if n.entries[i].key == key {
			return n.entries[i].val
		}
	}
	return nil
}

func TestYAMLBasics(t *testing.T) {
	src := `
# a comment
name: demo
seed: 42
fleet:
  vpes: 6
  start: 2017-01-01
list:
  - one
  - "two three"
  - 'it''s'
flow: [a, b, c]
timeline:
  - at: 30d
    fault:
      cause: circuit
      vpes: [vpe00, vpe01]
  - at: 45d
    checkpoint:
`
	root, err := parseYAML([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := root.get("name").scalar; got != "demo" {
		t.Fatalf("name = %q", got)
	}
	fleet := root.get("fleet")
	if fleet == nil || fleet.kind != yMap || fleet.get("vpes").scalar != "6" {
		t.Fatalf("fleet not decoded: %+v", fleet)
	}
	list := root.get("list")
	if list.kind != ySeq || len(list.items) != 3 {
		t.Fatalf("list: %+v", list)
	}
	if list.items[1].scalar != "two three" || list.items[2].scalar != "it's" {
		t.Fatalf("quoted scalars: %q %q", list.items[1].scalar, list.items[2].scalar)
	}
	flow := root.get("flow")
	if flow.kind != ySeq || len(flow.items) != 3 || flow.items[2].scalar != "c" {
		t.Fatalf("flow list: %+v", flow)
	}
	tl := root.get("timeline")
	if tl.kind != ySeq || len(tl.items) != 2 {
		t.Fatalf("timeline: %+v", tl)
	}
	first := tl.items[0]
	if first.kind != yMap || first.get("at").scalar != "30d" {
		t.Fatalf("compact entry: %+v", first)
	}
	fault := first.get("fault")
	if fault.kind != yMap || fault.get("cause").scalar != "circuit" {
		t.Fatalf("nested map under compact entry: %+v", fault)
	}
	if vpes := fault.get("vpes"); vpes.kind != ySeq || len(vpes.items) != 2 {
		t.Fatalf("flow list in nested map: %+v", vpes)
	}
	// Bare "checkpoint:" decodes as an empty scalar.
	if cp := tl.items[1].get("checkpoint"); cp == nil || cp.kind != yScalar || cp.scalar != "" {
		t.Fatalf("empty value: %+v", cp)
	}
}

func TestYAMLErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"tab indent", "a:\n\tb: 1\n", "tab in indentation"},
		{"duplicate key", "a: 1\na: 2\n", "duplicate key"},
		{"bad outdent", "a:\n    b: 1\n  c: 2\n", "unexpected indentation"},
		{"flow map", "a: {b: 1}\n", "flow mappings"},
		{"anchor", "a: &x 1\n", "unsupported YAML feature"},
		{"block scalar", "a: |\n  text\n", "unsupported YAML feature"},
		{"root seq", "- a\n- b\n", "root must be a mapping"},
		{"empty", "\n# only comments\n", "empty document"},
		{"bad line", "just words\n", "expected \"key: value\""},
		{"unterminated flow", "a: [1, 2\n", "unterminated flow list"},
		{"unterminated quote", "a: 'oops\n", "unterminated single-quoted"},
		{"seq in map", "a: 1\n- b\n", "sequence item inside a mapping"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseYAML([]byte(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestYAMLCommentsAndQuotes(t *testing.T) {
	src := `
a: value # trailing comment
b: "quoted # not a comment"
c: 'single # also kept'
d: url#fragment
`
	root, err := parseYAML([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := root.get("a").scalar; got != "value" {
		t.Fatalf("a = %q", got)
	}
	if got := root.get("b").scalar; got != "quoted # not a comment" {
		t.Fatalf("b = %q", got)
	}
	if got := root.get("c").scalar; got != "single # also kept" {
		t.Fatalf("c = %q", got)
	}
	// '#' not preceded by a space is part of the scalar.
	if got := root.get("d").scalar; got != "url#fragment" {
		t.Fatalf("d = %q", got)
	}
}

func TestYAMLNestedSeqOfMaps(t *testing.T) {
	src := `
metrics:
  -
    name: a
    min: 1
  - name: b
    max: 2
`
	root, err := parseYAML([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m := root.get("metrics")
	if m.kind != ySeq || len(m.items) != 2 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.items[0].get("name").scalar != "a" || m.items[0].get("min").scalar != "1" {
		t.Fatalf("dash-alone item: %+v", m.items[0])
	}
	if m.items[1].get("name").scalar != "b" || m.items[1].get("max").scalar != "2" {
		t.Fatalf("compact item: %+v", m.items[1])
	}
}
