package store

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentSnapshotsPublishWholePayload runs rounds of concurrent
// WriteSnapshot calls with payloads of different lengths. Every call must
// succeed, and each round must leave a snapshot that decodes to one whole
// payload and no temp file beside it.
func TestConcurrentSnapshotsPublishWholePayload(t *testing.T) {
	type payload struct {
		Writer int    `json:"writer"`
		Pad    string `json:"pad"`
	}
	const writers, rounds = 8, 25
	padLen := func(w int) int { return w * w * 1000 } // 0 B to 49 kB
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.json")
	for round := 0; round < rounds; round++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := WriteSnapshot(path, payload{Writer: w, Pad: strings.Repeat("x", padLen(w))}); err != nil {
					t.Errorf("round %d writer %d: %v", round, w, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		var got payload
		if err := ReadSnapshot(path, &got); err != nil {
			t.Fatalf("round %d: published snapshot unreadable: %v", round, err)
		}
		if got.Writer < 0 || got.Writer >= writers || len(got.Pad) != padLen(got.Writer) {
			t.Fatalf("round %d: snapshot from writer %d holds %d pad bytes, want %d", round, got.Writer, len(got.Pad), padLen(got.Writer))
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		for _, f := range files {
			if f.Name() != "snapshot.json" {
				t.Fatalf("round %d: %s left beside the snapshot", round, f.Name())
			}
		}
	}
}
