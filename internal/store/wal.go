// Package store is the durability layer of the serving tier: an
// append-only, CRC-framed, fsync-batched write-ahead log plus an atomic
// JSON snapshot file, both living under one data directory. The paper
// models servers that break down and recover; this package is what lets
// our own nodes do the same without losing the work they had accepted —
// job records, state transitions and solved sweep points survive a
// kill -9 and are replayed on the next boot, while the snapshot warms the
// solver caches so a restarted node rejoins hot.
//
// Layering, bottom up:
//
//   - Frames. EncodeFrame/DecodeFrames define the record framing: a
//     little-endian length, a CRC-32C of the payload, then the payload.
//     Decoding is strictly defensive — truncated tails, bit flips and
//     zero-length frames terminate the scan cleanly, never panic and
//     never yield a record that was not written whole.
//   - Segments. A WAL is a directory of wal-<gen>-<seq>.log segment
//     files. Appends go to the newest segment and roll to a new one past
//     SegmentSize; fsyncs are batched on FsyncInterval (Sync forces one).
//     On open, the tail segment is scanned and truncated at the first
//     torn frame, so a crash mid-write costs at most the unsynced suffix.
//   - Compaction. Compact rewrites the records a filter keeps into a
//     fresh generation (tmp file, fsync, atomic rename, then the old
//     generation is deleted), so completed-and-expired job records stop
//     costing replay time. A crash at any point leaves either the old
//     generation or the new one — never a mix.
//
// JobLog (joblog.go) types the payloads for the job scheduler: points
// entries in a compact binary layout behind a one-byte tag, every other
// entry as JSON, the first byte of a payload naming its encoding.
// WriteSnapshot/ReadSnapshot (snapshot.go) handle the cache snapshot.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Frame layout: 4-byte little-endian payload length, 4-byte CRC-32C
// (Castagnoli) of the payload, then the payload bytes.
const frameHeaderSize = 8

// MaxRecordSize bounds one record's payload. Anything larger on decode is
// treated as corruption: a flipped bit in the length field must not make
// the scanner attempt a gigabyte read.
const MaxRecordSize = 16 << 20

// castagnoli is the CRC-32C table shared by encode and decode.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record that failed its CRC (or an impossible
// length) before the tail of the log — data loss that truncation cannot
// explain away.
var ErrCorrupt = errors.New("store: corrupt record before log tail")

// EncodeFrame appends one framed record to dst and returns the extended
// slice. Empty payloads are legal to encode but decode as end-of-log (an
// all-zero region — a preallocated or torn tail — is indistinguishable
// from them), so callers framing real records must send at least one byte.
func EncodeFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeFrames scans data for framed records, calling fn with each intact
// payload in order, and returns how many bytes of data held intact
// records. The scan stops — without error — at the first frame that is
// torn (truncated header or payload), zero-length, over-sized or
// CRC-mismatched: every one of those is what the tail of a crashed log
// looks like, and consumed tells the caller where to truncate. fn's error
// aborts the scan and is returned verbatim. fn must not retain the
// payload slice; it aliases data.
func DecodeFrames(data []byte, fn func(payload []byte) error) (consumed int, err error) {
	off := 0
	for {
		if len(data)-off < frameHeaderSize {
			return off, nil // torn or absent header: tail
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		if n == 0 || n > MaxRecordSize {
			return off, nil // zero-length or absurd length: tail
		}
		end := off + frameHeaderSize + int(n)
		if end < 0 || end > len(data) {
			return off, nil // torn payload: tail
		}
		payload := data[off+frameHeaderSize : end]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			return off, nil // bit flip: tail
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, err
			}
		}
		off = end
	}
}

// Options tunes a WAL.
type Options struct {
	// SegmentSize is the byte threshold past which appends roll to a new
	// segment file (default DefaultSegmentSize).
	SegmentSize int64
	// FsyncInterval batches fsyncs: appends mark the log dirty and a
	// background loop syncs every interval (default DefaultFsyncInterval).
	// Zero or negative disables the loop — every Append syncs before
	// returning, the strict-durability mode tests use.
	FsyncInterval time.Duration
}

// DefaultSegmentSize is the segment roll threshold used for a zero
// Options.SegmentSize.
const DefaultSegmentSize = 8 << 20

// DefaultFsyncInterval is the fsync batching period used for a zero
// Options.FsyncInterval: short enough that an acknowledged sweep point
// survives anything but a crash within milliseconds of landing, long
// enough to amortise thousands of point appends per sync.
const DefaultFsyncInterval = 10 * time.Millisecond

// WALStats snapshots a log's lifetime counters.
type WALStats struct {
	// AppendedBytes counts frame bytes written (headers included).
	AppendedBytes uint64
	// AppendedRecords counts records written.
	AppendedRecords uint64
	// Fsyncs counts fsync calls issued.
	Fsyncs uint64
	// Segments is the current segment-file count.
	Segments int
	// ReplayDuration is how long the last Replay took (zero before one).
	ReplayDuration time.Duration
	// ReplayedRecords counts records delivered by the last Replay.
	ReplayedRecords uint64
}

// WAL is an append-only segmented log. It is safe for concurrent use.
type WAL struct {
	dir  string
	opts Options

	mu       sync.Mutex
	segments []segmentRef // sorted (gen, seq), last is active
	active   *os.File
	w        *bufio.Writer
	size     int64 // bytes in the active segment
	dirty    bool  // buffered or written-but-unsynced data pending
	closed   bool

	appendedBytes atomic.Uint64
	appendedRecs  atomic.Uint64
	fsyncs        atomic.Uint64
	replayNanos   atomic.Int64
	replayedRecs  atomic.Uint64

	stopSync chan struct{}
	syncDone chan struct{}
}

// segmentRef names one on-disk segment.
type segmentRef struct {
	gen, seq uint64
}

func (s segmentRef) filename() string {
	return fmt.Sprintf("wal-%08d-%08d.log", s.gen, s.seq)
}

// parseSegmentName recovers a segmentRef from a filename, reporting
// whether it is a live segment (tmp files and foreign names are not).
func parseSegmentName(name string) (segmentRef, bool) {
	var s segmentRef
	if _, err := fmt.Sscanf(name, "wal-%08d-%08d.log", &s.gen, &s.seq); err != nil {
		return segmentRef{}, false
	}
	return s, name == s.filename()
}

// OpenWAL opens (or creates) the log under dir: stray tmp files and
// superseded generations are deleted, the tail segment is truncated at
// its first torn frame, and appends resume from there. The caller should
// Replay before appending if it needs the history.
func OpenWAL(dir string, opts Options) (*WAL, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read data dir: %w", err)
	}
	var segs []segmentRef
	maxGen := uint64(0)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if filepath.Ext(e.Name()) == ".tmp" {
			// A compaction that died before its atomic rename; harmless.
			_ = os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		if s, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, s)
			if s.gen > maxGen {
				maxGen = s.gen
			}
		}
	}
	// Only the newest generation is live: older ones are leftovers of a
	// compaction that crashed between its rename and its deletes.
	live := segs[:0]
	for _, s := range segs {
		if s.gen == maxGen {
			live = append(live, s)
		} else {
			_ = os.Remove(filepath.Join(dir, s.filename()))
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })

	w := &WAL{dir: dir, opts: opts, segments: append([]segmentRef(nil), live...)}
	if len(w.segments) == 0 {
		w.segments = []segmentRef{{gen: maxGen, seq: 0}}
		if err := w.openActive(os.O_CREATE | os.O_EXCL); err != nil {
			return nil, err
		}
	} else {
		// Truncate the tail segment at its first torn frame so appends
		// never land after garbage.
		tail := w.segments[len(w.segments)-1]
		path := filepath.Join(dir, tail.filename())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: read tail segment: %w", err)
		}
		good, _ := DecodeFrames(data, nil)
		if good < len(data) {
			if err := os.Truncate(path, int64(good)); err != nil {
				return nil, fmt.Errorf("store: truncate torn tail: %w", err)
			}
		}
		if err := w.openActive(0); err != nil {
			return nil, err
		}
	}
	if opts.FsyncInterval > 0 {
		w.stopSync = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// openActive opens the last segment for appending. Callers hold mu or
// have exclusive access.
func (w *WAL) openActive(extraFlags int) error {
	ref := w.segments[len(w.segments)-1]
	f, err := os.OpenFile(filepath.Join(w.dir, ref.filename()),
		os.O_WRONLY|os.O_APPEND|extraFlags, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: stat segment: %w", err)
	}
	w.active = f
	w.size = st.Size()
	w.w = bufio.NewWriter(f)
	return nil
}

// Append frames one record and writes it to the active segment, rolling
// to a new segment past the size threshold. With fsync batching enabled
// the record is durable within one FsyncInterval; otherwise Append syncs
// before returning. Empty payloads are rejected — they would decode as
// end-of-log.
func (w *WAL) Append(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("store: empty record")
	}
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("store: record of %d bytes exceeds the %d-byte bound", len(payload), MaxRecordSize)
	}
	frame := EncodeFrame(nil, payload)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("store: log is closed")
	}
	if w.size >= w.opts.SegmentSize {
		if err := w.rollLocked(); err != nil {
			w.mu.Unlock()
			return err
		}
	}
	if _, err := w.w.Write(frame); err != nil {
		w.mu.Unlock()
		return fmt.Errorf("store: append: %w", err)
	}
	w.size += int64(len(frame))
	w.dirty = true
	w.appendedBytes.Add(uint64(len(frame)))
	w.appendedRecs.Add(1)
	batched := w.opts.FsyncInterval > 0
	var err error
	if !batched {
		err = w.syncLocked()
	}
	w.mu.Unlock()
	return err
}

// rollLocked seals the active segment (flush + fsync) and starts the next
// one in the same generation. Callers hold mu.
func (w *WAL) rollLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	last := w.segments[len(w.segments)-1]
	w.segments = append(w.segments, segmentRef{gen: last.gen, seq: last.seq + 1})
	return w.openActive(os.O_CREATE | os.O_EXCL)
}

// Sync forces buffered appends to disk. It is a no-op on a clean log.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.syncLocked()
}

// syncLocked flushes the buffered writer and fsyncs the active segment.
// Callers hold mu.
func (w *WAL) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	w.fsyncs.Add(1)
	w.dirty = false
	return nil
}

// syncLoop is the fsync-batching goroutine: one fsync per interval while
// appends keep arriving.
func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	t := time.NewTicker(w.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = w.Sync() // an I/O error surfaces on the next Append/Sync/Close
		case <-w.stopSync:
			return
		}
	}
}

// Replay streams every intact record, oldest first, to fn. A torn tail on
// the final segment is skipped silently (it was truncated at open; a
// crash after open can recreate one); a bad frame before the tail returns
// ErrCorrupt after delivering everything up to it. fn must not retain the
// payload slice.
func (w *WAL) Replay(fn func(payload []byte) error) error {
	start := time.Now()
	w.mu.Lock()
	if err := w.syncLocked(); err != nil { // fn must see every acknowledged append
		w.mu.Unlock()
		return err
	}
	segs := append([]segmentRef(nil), w.segments...)
	w.mu.Unlock()
	var replayed uint64
	for i, s := range segs {
		data, err := os.ReadFile(filepath.Join(w.dir, s.filename()))
		if err != nil {
			return fmt.Errorf("store: replay: %w", err)
		}
		consumed, err := DecodeFrames(data, func(p []byte) error {
			replayed++
			return fn(p)
		})
		if err != nil {
			return err
		}
		if consumed < len(data) && i < len(segs)-1 {
			return fmt.Errorf("%w: segment %s offset %d", ErrCorrupt, s.filename(), consumed)
		}
	}
	w.replayNanos.Store(int64(time.Since(start)))
	w.replayedRecs.Store(replayed)
	return nil
}

// Compact rewrites the log keeping only the records keep accepts: they
// are copied into a single fresh-generation segment via a tmp file, an
// atomic rename publishes it, and the old generation is deleted. Appends
// are blocked for the duration. A crash anywhere leaves a log that opens
// as either the old or the new generation, never a mix.
func (w *WAL) Compact(keep func(payload []byte) bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: log is closed")
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	old := append([]segmentRef(nil), w.segments...)
	next := segmentRef{gen: old[0].gen + 1, seq: 0}
	tmpPath := filepath.Join(w.dir, next.filename()+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	bw := bufio.NewWriter(tmp)
	var size int64
	for i, s := range old {
		data, err := os.ReadFile(filepath.Join(w.dir, s.filename()))
		if err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact read: %w", err)
		}
		consumed, err := DecodeFrames(data, func(p []byte) error {
			if !keep(p) {
				return nil
			}
			frame := EncodeFrame(nil, p)
			size += int64(len(frame))
			_, werr := bw.Write(frame)
			return werr
		})
		if err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact write: %w", err)
		}
		if consumed < len(data) && i < len(old)-1 {
			tmp.Close()
			return fmt.Errorf("%w: segment %s offset %d", ErrCorrupt, s.filename(), consumed)
		}
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact flush: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact close: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(w.dir, next.filename())); err != nil {
		return fmt.Errorf("store: compact publish: %w", err)
	}
	w.fsyncs.Add(1)
	syncDir(w.dir)
	// The new generation is durable; retire the old one and point appends
	// at the compacted segment.
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("store: compact retire: %w", err)
	}
	for _, s := range old {
		_ = os.Remove(filepath.Join(w.dir, s.filename()))
	}
	w.segments = []segmentRef{next}
	w.dirty = false
	return w.openActive(0)
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Stats snapshots the log's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	segs := len(w.segments)
	w.mu.Unlock()
	return WALStats{
		AppendedBytes:   w.appendedBytes.Load(),
		AppendedRecords: w.appendedRecs.Load(),
		Fsyncs:          w.fsyncs.Load(),
		Segments:        segs,
		ReplayDuration:  time.Duration(w.replayNanos.Load()),
		ReplayedRecords: w.replayedRecs.Load(),
	}
}

// Close flushes, fsyncs and closes the log. Further appends fail.
func (w *WAL) Close() error {
	if w.stopSync != nil {
		close(w.stopSync)
		<-w.syncDone
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	if cerr := w.active.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dir returns the directory the log lives in.
func (w *WAL) Dir() string { return w.dir }
