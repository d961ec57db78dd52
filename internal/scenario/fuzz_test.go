package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSpecLoad feeds scenario documents to Load, seeded with every file
// the repository ships under scenarios/: every input either loads into a
// spec that validates, the same spec each time, or is refused with an
// error. None panics.
func FuzzSpecLoad(f *testing.F) {
	for _, glob := range []string{"../../scenarios/*.yaml", "../../scenarios/*/*.yaml"} {
		files, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(src)
		}
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		spec, err := Load(src)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("Load accepted a spec that does not validate: %v", verr)
		}
		again, err := Load(src)
		if err != nil || !reflect.DeepEqual(spec, again) {
			t.Fatalf("the same document loaded twice differs: %v", err)
		}
	})
}
