package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestGenerationNameRoundTrip(t *testing.T) {
	for _, num := range []int{0, 1, 42, 999999, 1000000} {
		name := GenerationName(num)
		got, err := ParseGenerationName(name)
		if err != nil {
			t.Fatalf("ParseGenerationName(%q): %v", name, err)
		}
		if got != num {
			t.Fatalf("round trip %d -> %q -> %d", num, name, got)
		}
	}
}

func TestParseGenerationNameRejectsMalformed(t *testing.T) {
	for _, name := range []string{
		"", "gen-", "gen-12", "gen-abc", "gen-000001x",
		"../../etc", "gen-000001/../..", "shard-0001.ndx", "CURRENT",
	} {
		if _, err := ParseGenerationName(name); err == nil {
			t.Errorf("ParseGenerationName(%q) accepted", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("ParseGenerationName(%q): %v is not ErrCorrupt", name, err)
		}
	}
}

func TestCurrentPointerLifecycle(t *testing.T) {
	dir := t.TempDir()

	// Absent pointer: no snapshot, not an error.
	if _, ok, err := ReadCurrent(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}

	if err := WriteCurrent(dir, GenerationName(1)); err != nil {
		t.Fatal(err)
	}
	name, ok, err := ReadCurrent(dir)
	if err != nil || !ok || name != "gen-000001" {
		t.Fatalf("after write: name=%q ok=%v err=%v", name, ok, err)
	}

	// Repoint: atomic replace, new target visible.
	if err := WriteCurrent(dir, GenerationName(2)); err != nil {
		t.Fatal(err)
	}
	if name, _, _ := ReadCurrent(dir); name != "gen-000002" {
		t.Fatalf("after repoint: %q", name)
	}
	// No .tmp debris left behind.
	if _, err := os.Stat(filepath.Join(dir, CurrentName+".tmp")); !os.IsNotExist(err) {
		t.Fatal("temporary pointer file left behind")
	}

	// Malformed target refused at write time.
	if err := WriteCurrent(dir, "../evil"); err == nil {
		t.Fatal("WriteCurrent accepted a malformed name")
	}
}

func TestReadCurrentRejectsCorruptPointer(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CurrentName), []byte("../../escape\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCurrent(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt pointer: %v", err)
	}
}

func TestRetireGeneration(t *testing.T) {
	dir := t.TempDir()
	for _, g := range []int{1, 2} {
		gdir := filepath.Join(dir, GenerationName(g))
		if err := os.MkdirAll(gdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(gdir, "manifest.json"), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteCurrent(dir, GenerationName(2)); err != nil {
		t.Fatal(err)
	}

	// Refuses the generation CURRENT names.
	if err := RetireGeneration(dir, GenerationName(2)); err == nil {
		t.Fatal("retired the CURRENT generation")
	}
	// Refuses malformed names (no path traversal through retirement).
	if err := RetireGeneration(dir, "../outside"); err == nil {
		t.Fatal("retired a malformed name")
	}

	if err := RetireGeneration(dir, GenerationName(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, GenerationName(1))); !os.IsNotExist(err) {
		t.Fatal("generation 1 still on disk")
	}
	if _, err := os.Stat(filepath.Join(dir, GenerationName(2))); err != nil {
		t.Fatal("generation 2 was touched")
	}
}
