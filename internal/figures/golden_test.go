package figures

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// TestAllGolden pins every experiment's output at a small scale to the
// bytes `ndsearch -n 400 -batch 16 all` printed when the file was
// written, so a refactor of the device model or the suite that changes
// any figure fails here rather than in a by-hand comparison. Regenerate
// testdata/all_n400_b16.txt only for a change meant to move the figures.
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		// The bytes were checked on amd64 and 386 only; compilers for
		// other architectures may fuse multiply-adds, which can move a
		// float64 figure in its last printed digit.
		t.Skip("golden checked on amd64 and 386 only")
	}
	want, err := os.ReadFile("testdata/all_n400_b16.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := RunMany(NewSuite(Scale{N: 400, Batch: 16, K: 10, Seed: 1}), []string{"all"}, 1, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from testdata/all_n400_b16.txt at %s", firstDiff(got.String(), string(want)))
	}
}
