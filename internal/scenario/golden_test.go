package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/spec.golden")

// TestSpecGolden pins what the decoder makes of every shipped scenario
// file and of TestLoadSpec's document: every field of the decoded Spec,
// defaults included, one "path = value" line each.
func TestSpecGolden(t *testing.T) {
	var files []string
	for _, glob := range []string{"../../scenarios/*.yaml", "../../scenarios/*/*.yaml"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	sort.Strings(files)
	var b strings.Builder
	for _, file := range files {
		spec, err := LoadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		fmt.Fprintf(&b, "== %s\n", strings.TrimPrefix(file, "../../"))
		dumpValue(&b, "Spec", reflect.ValueOf(spec).Elem())
	}
	spec, err := Load([]byte(specDoc))
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("== specDoc\n")
	dumpValue(&b, "Spec", reflect.ValueOf(spec).Elem())

	path := filepath.Join("testdata", "spec.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("decoded specs differ from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("decoded specs differ from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// dumpValue writes v as "path = value" lines in field order. Nil and
// empty lists print alike, as do a nil pointer and a missing block.
func dumpValue(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(b, "%s = nil\n", path)
			return
		}
		dumpValue(b, "*"+path, v.Elem())
	case reflect.Struct:
		if tm, ok := v.Interface().(time.Time); ok {
			fmt.Fprintf(b, "%s = %s\n", path, tm.Format(time.RFC3339Nano))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			dumpValue(b, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		fmt.Fprintf(b, "%s len = %d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpValue(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.String:
		fmt.Fprintf(b, "%s = %q\n", path, v.String())
	default:
		if d, ok := v.Interface().(time.Duration); ok {
			fmt.Fprintf(b, "%s = %s\n", path, d)
			return
		}
		fmt.Fprintf(b, "%s = %v\n", path, v.Interface())
	}
}
