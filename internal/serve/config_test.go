package serve

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"nfvpredict/internal/ingest"
	"nfvpredict/internal/lifecycle"
)

// TestConfigGolden is the knob ledger: every exported field, with its type,
// of the four structs a caller configures the serving stack through. A
// field gained or lost shows up as a diff of testdata/config.golden in
// review, the way surface.golden shows a metric family or route.
func TestConfigGolden(t *testing.T) {
	var doc strings.Builder
	for _, v := range []any{Options{}, ingest.MonitorConfig{}, ingest.ServerConfig{}, lifecycle.Config{}} {
		typ := reflect.TypeOf(v)
		var fields []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields = append(fields, fmt.Sprintf("%s %s", f.Name, f.Type))
			}
		}
		fmt.Fprintf(&doc, "== %s (%d fields)\n%s\n", typ, len(fields), strings.Join(fields, "\n"))
	}
	want, err := os.ReadFile("testdata/config.golden")
	if err != nil {
		t.Fatal(err)
	}
	if doc.String() != string(want) {
		t.Fatalf("configuration surface changed:\n%s", doc.String())
	}
}
