// Generation-numbered snapshot directories: the one on-disk shape of an
// engine's shard set. An engine directory holds one subdirectory per
// generation (gen-000000 for a fresh save, then gen-000001, ... per
// compaction), each a complete engine snapshot with its own manifest and
// CRC-guarded shard files, plus a CURRENT pointer file naming the
// generation to serve. CURRENT is replaced by atomic rename, so a crash
// at any point leaves either the old or the new generation fully
// referenced — never a torn pointer — and a directory whose CURRENT
// names a generation always names one whose manifest was completely
// written first (the writer finishes the generation, fsync-free but
// rename-ordered, before repointing CURRENT). Retired generations are
// deleted only after the pointer has moved and in-flight searches have
// drained.
package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// CurrentName is the pointer file naming the generation subdirectory to
// serve. A directory without one holds no engine snapshot.
const CurrentName = "CURRENT"

// genNamePattern pins the generation directory shape so a corrupted or
// hand-edited CURRENT cannot point the loader at an arbitrary path.
var genNamePattern = regexp.MustCompile(`^gen-[0-9]{6,}$`)

// GenerationName formats the directory name of generation num.
func GenerationName(num int) string {
	return fmt.Sprintf("gen-%06d", num)
}

// ParseGenerationName extracts the generation number from a directory
// name produced by GenerationName, or an error for anything else.
func ParseGenerationName(name string) (int, error) {
	if !genNamePattern.MatchString(name) {
		return 0, fmt.Errorf("%w: malformed generation name %q", ErrCorrupt, name)
	}
	var num int
	if _, err := fmt.Sscanf(name, "gen-%d", &num); err != nil {
		return 0, fmt.Errorf("%w: malformed generation name %q", ErrCorrupt, name)
	}
	return num, nil
}

// ReadCurrent resolves dir's CURRENT pointer. ok is false (with no
// error) when the file does not exist: dir holds no snapshot. A pointer
// naming anything but a well-formed generation directory is
// corruption, not absence.
func ReadCurrent(dir string) (name string, ok bool, err error) {
	blob, err := os.ReadFile(filepath.Join(dir, CurrentName))
	if os.IsNotExist(err) {
		return "", false, nil
	}
	if err != nil {
		return "", false, fmt.Errorf("snapshot: read %s: %w", CurrentName, err)
	}
	name = strings.TrimSpace(string(blob))
	if _, err := ParseGenerationName(name); err != nil {
		return "", false, fmt.Errorf("snapshot: %s: %w", CurrentName, err)
	}
	return name, true, nil
}

// WriteCurrent atomically repoints dir's CURRENT at the named
// generation: the pointer is written to a temporary file and renamed
// into place, so concurrent readers see either the old or the new
// target, never a partial write.
func WriteCurrent(dir, name string) error {
	if _, err := ParseGenerationName(name); err != nil {
		return err
	}
	tmp := filepath.Join(dir, CurrentName+".tmp")
	if err := os.WriteFile(tmp, []byte(name+"\n"), 0o644); err != nil {
		return fmt.Errorf("snapshot: write %s: %w", CurrentName, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, CurrentName)); err != nil {
		return fmt.Errorf("snapshot: swap %s: %w", CurrentName, err)
	}
	return nil
}

// RetireGeneration deletes a generation subdirectory after the CURRENT
// pointer has moved past it. The name must be a well-formed generation
// directory and must not be the generation CURRENT still names.
func RetireGeneration(dir, name string) error {
	if _, err := ParseGenerationName(name); err != nil {
		return err
	}
	if cur, ok, err := ReadCurrent(dir); err == nil && ok && cur == name {
		return fmt.Errorf("snapshot: refusing to retire %s: it is CURRENT: %w", name, ErrBadInput)
	}
	if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("snapshot: retire %s: %w", name, err)
	}
	return nil
}
