// Package checkpoint is the tuner's durability layer: crash-safe snapshots
// of in-flight tuning sessions and an append-only write-ahead journal for
// the tuning farm.
//
// The paper's headline cost is wall-clock — up to 200 minutes of tuning per
// program — so losing in-flight state to a crash, OOM, or operator restart
// forfeits real time. This package makes that state durable with one shared
// on-disk framing: a magic+version header followed by length- and
// CRC32-guarded records. Snapshots are whole-file documents rotated
// atomically (written to a temp file, fsynced, then renamed over the old
// snapshot, so a reader only ever sees a complete snapshot or the previous
// one); journals are append-only record streams whose recovery path salvages
// the valid prefix of a truncated or corrupted tail instead of refusing to
// start. Decoding fails closed: corrupt headers, torn records, CRC
// mismatches, and future format versions are errors, never panics and never
// partially-applied state.
//
// A session Snapshot captures everything a killed session needs to continue
// and converge to the byte-identical outcome of an uninterrupted run: the
// session fingerprint (Meta), the baseline measurement, the ordered log of
// every delivered measurement, and the runner's per-key state (evaluated-
// config cache, noise-rep indices, chaos-layer counters, elapsed virtual
// clock). Searcher and RNG state are deliberately *not* serialized —
// searchers key in-flight work by pointer, which no flat encoding survives.
// Instead core.Session replays the measurement log through the searcher on
// resume: the engine is deterministic, so replay reconstructs searcher and
// RNG state exactly. See core.Session.Resume and docs/DURABILITY.md.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Version is the on-disk format version written by this build; readers
// reject anything newer (fail closed — a future format may carry state this
// build would silently drop).
const Version = 1

// magic opens every checkpoint file and journal.
const magic = "ATCK"

// headerSize is the byte length of the file header (magic + version).
const headerSize = 8

// recordHeaderSize is the byte length of each record's frame (length + CRC).
const recordHeaderSize = 8

// maxRecordBytes bounds a single record. Real snapshots are a few megabytes
// at most; anything claiming more is a garbled length field, and failing
// here keeps a corrupt file from turning into a multi-gigabyte allocation.
const maxRecordBytes = 1 << 28

// Sentinel decode errors, matched with errors.Is.
var (
	// ErrCorrupt marks unreadable on-disk state: bad magic, torn records,
	// CRC mismatches, implausible lengths.
	ErrCorrupt = errors.New("checkpoint: corrupt data")
	// ErrFutureVersion marks files written by a newer format revision.
	ErrFutureVersion = errors.New("checkpoint: future format version")
)

// writeHeader emits the file header: magic then version, little-endian.
func writeHeader(w io.Writer) error {
	var h [headerSize]byte
	copy(h[:4], magic)
	binary.LittleEndian.PutUint32(h[4:], Version)
	_, err := w.Write(h[:])
	return err
}

// readHeader validates the header and returns the file's format version.
func readHeader(r io.Reader) (uint32, error) {
	var h [headerSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if string(h[:4]) != magic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, h[:4])
	}
	v := binary.LittleEndian.Uint32(h[4:])
	if v == 0 {
		return 0, fmt.Errorf("%w: version 0", ErrCorrupt)
	}
	if v > Version {
		return v, fmt.Errorf("%w: %d (this build reads up to %d)", ErrFutureVersion, v, Version)
	}
	return v, nil
}

// writeRecord frames one payload: length, CRC32 (IEEE) of the payload, then
// the payload itself.
func writeRecord(w io.Writer, payload []byte) error {
	var h [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(h[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeRecordParts frames a payload given as the ordered parts emit
// yields, without joining them: a first pass sums the length and CRC32
// across the parts, a second writes the frame and then each part. The
// bytes are those writeRecord writes for the concatenated payload.
func writeRecordParts(w io.Writer, emit func(part func([]byte))) error {
	var n int
	var crc uint32
	emit(func(b []byte) {
		n += len(b)
		crc = crc32.Update(crc, crc32.IEEETable, b)
	})
	var h [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(h[:4], uint32(n))
	binary.LittleEndian.PutUint32(h[4:], crc)
	_, err := w.Write(h[:])
	emit(func(b []byte) {
		if err == nil && len(b) > 0 {
			_, err = w.Write(b)
		}
	})
	return err
}

// readRecord reads the next framed payload. A clean end of stream returns
// io.EOF; a torn header, truncated payload, implausible length, or CRC
// mismatch returns an error wrapping ErrCorrupt, which journal recovery
// treats as "the valid prefix ends here".
func readRecord(r io.Reader) ([]byte, error) {
	var h [recordHeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: torn record header", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(h[:4])
	if n > maxRecordBytes {
		return nil, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated record (want %d bytes)", ErrCorrupt, n)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(h[4:]); got != want {
		return nil, fmt.Errorf("%w: record CRC mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	return payload, nil
}
