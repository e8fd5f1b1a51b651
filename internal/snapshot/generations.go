// Generation-numbered snapshot directories: the one on-disk shape of an
// engine's shard set. An engine directory holds one subdirectory per
// generation (gen-000000 for a fresh save, then gen-000001, ... per
// compaction), each a complete engine snapshot with its own manifest and
// CRC-guarded shard files, plus a CURRENT pointer file naming the
// generation to serve. CURRENT is replaced by atomic rename, so a crash
// at any point leaves either the old or the new generation fully
// referenced — never a torn pointer. The writer makes the generation
// durable before repointing CURRENT (each shard file synced before its
// rename, then the manifest, the generation directory and the root
// directory), and WriteCurrent syncs the pointer and the root directory
// around its rename, so after an OS crash or a power loss, as after a
// process crash, CURRENT names a fully written generation. Retired
// generations are deleted only after the pointer has moved and in-flight
// searches have drained.
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

// WriteCurrent atomically and durably repoints dir's CURRENT at the
// named generation: the pointer is written to a temporary file, synced,
// and renamed into place, then dir is synced, so concurrent readers see
// either the old or the new target, never a partial write, and the new
// target survives a power loss once WriteCurrent returns. The caller
// makes the generation itself durable first.
func WriteCurrent(dir, name string) error {
	if _, err := ParseGenerationName(name); err != nil {
		return err
	}
	tmp := filepath.Join(dir, CurrentName+".tmp")
	if err := WriteFileSync(tmp, []byte(name+"\n")); err != nil {
		return fmt.Errorf("snapshot: write %s: %w", CurrentName, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, CurrentName)); err != nil {
		return fmt.Errorf("snapshot: swap %s: %w", CurrentName, err)
	}
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("snapshot: swap %s: %w", CurrentName, err)
	}
	return nil
}

// WriteFileSync writes data to path (created or truncated) and syncs it
// to stable storage before closing it.
func WriteFileSync(path string, data []byte) error {
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = fh.Write(data)
	if err == nil {
		err = fh.Sync()
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}

// SyncDir syncs dir itself, making the entries created or renamed in it
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
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
