package check

import (
	"path/filepath"
	"testing"
)

// TestRepro_fuzzcheck_dcbb971 replays the minimized reproducer committed as
// testdata/fuzzcheck-dcbb971.json and asserts the divergence it once
// demonstrated no longer occurs.
func TestRepro_fuzzcheck_dcbb971(t *testing.T) {
	fx, err := LoadFixture(filepath.Join("testdata", "fuzzcheck-dcbb971.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep := fx.Run()
	if rep.Failed() {
		t.Fatalf("fixture %s diverges again:\n%s", fx.Name, rep.String())
	}
}
