package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// ErrNoSnapshot reports that no snapshot file exists — the normal state
// of a first boot, distinct from a snapshot that exists but is unreadable.
var ErrNoSnapshot = errors.New("store: no snapshot")

// WriteSnapshot atomically replaces the snapshot at path with the JSON
// encoding of v: the bytes are written to a temp file of their own in
// path's directory, fsynced, and renamed into place, so a crash mid-write
// leaves the previous snapshot intact and concurrent calls never share a
// temp file — whichever rename lands last publishes one whole payload.
// Temp names end in .tmp, so OpenWAL sweeps a leftover from a crash.
// Snapshots are advisory (they only warm caches), so unlike WAL appends
// they are all-or-nothing rather than incremental.
func WriteSnapshot(path string, v any) (err error) {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			_ = os.Remove(tmp)
		}
	}()
	// CreateTemp makes the file 0600; keep the snapshot world-readable as
	// it has always been.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	syncDir(dir)
	return nil
}

// ReadSnapshot decodes the snapshot at path into v. A missing file
// returns ErrNoSnapshot; a present-but-undecodable file returns the
// decode error (the caller decides whether a stale snapshot is fatal —
// for cache warming it never is).
func ReadSnapshot(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return ErrNoSnapshot
		}
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("store: decode snapshot %s: %w", path, err)
	}
	return nil
}
