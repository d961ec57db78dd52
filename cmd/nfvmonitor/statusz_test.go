package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nfvpredict/internal/bundle"
	"nfvpredict/internal/detect"
)

// keyPaths returns the sorted, de-duplicated key paths of a decoded JSON
// document with the values elided: "a.b" for a nested object key,
// "a[].b" for a key of an object inside an array.
func keyPaths(v any) []string {
	set := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, c := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				set[p] = true
				walk(p, c)
			}
		case []any:
			for _, c := range x {
				walk(prefix+"[]", c)
			}
		}
	}
	walk("", v)
	var out []string
	for p := range set {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// TestStatuszKeysGolden pins the key set of nfvmonitor's /statusz for the
// fullest app: a -model bundle, a -checkpoint written once, -adapt and
// -chaos. testdata/statusz_keys.golden holds the sorted key paths with
// the values elided, so a diff here is a key an operator's tooling reads
// that was added, renamed or lost.
func TestStatuszKeysGolden(t *testing.T) {
	dir := t.TempDir()
	tree, det := trainServing(t)
	model := filepath.Join(dir, "model.bundle")
	b := &bundle.Bundle{Tree: tree, Detectors: []*detect.LSTMDetector{det}, Assign: map[string]int{"vpe01": 0}, Threshold: 4}
	if err := b.SaveFile(model); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "monitor.ckpt")
	var o options
	fs := flag.NewFlagSet("nfvmonitor", flag.ContinueOnError)
	registerFlags(fs, &o)
	if err := fs.Parse([]string{"-model", model, "-checkpoint", ckpt, "-udp", "127.0.0.1:0",
		"-adapt", "-adapt-interval", "0", "-chaos"}); err != nil {
		t.Fatal(err)
	}
	a, err := newApp(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Checkpoint("test")

	_, body := get(t, adminMux(a), "/statusz")
	var doc any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decoding /statusz: %v\n%s", err, body)
	}
	got := strings.Join(keyPaths(doc), "\n") + "\n"
	if *updateStatusz {
		if err := os.WriteFile("testdata/statusz_keys.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/statusz_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/statusz key set changed:\n%s", got)
	}
}

var updateStatusz = flag.Bool("update", false, "rewrite testdata/statusz_keys.golden")
