package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/fault"
)

// maxRecordSize bounds a single record; larger length prefixes are treated
// as corruption (a torn or garbage tail).
const maxRecordSize = 64 << 20

// ScanResult summarizes a log scan.
type ScanResult struct {
	// LastLSN is the LSN of the last good record (0 if none).
	LastLSN uint64
	// GoodBytes is the file offset just past the last good record; a torn
	// tail begins there.
	GoodBytes int64
	// Torn reports whether trailing bytes after the last good record were
	// discarded (truncated or CRC-mismatched tail).
	Torn bool
}

// scanBufSize is the scanner's buffer: a scan reads the log in pieces of
// this size, one Read each.
const scanBufSize = 1 << 20

// Scan reads every intact record in the log file in order, invoking fn for
// each. A torn or corrupt tail ends the scan cleanly (Torn=true); an error
// from fn aborts the scan and is returned. Every call of fn gets the same
// Record, whose byte fields alias the scan's payload buffer: it is valid
// only during the call, and a caller that keeps it keeps its Clone.
func Scan(path string, fn func(*Record) error) (ScanResult, error) {
	return ScanFS(fault.OS{}, path, fn)
}

// ScanFS is Scan on an injectable filesystem.
func ScanFS(fsys fault.FS, path string, fn func(*Record) error) (ScanResult, error) {
	var res ScanResult
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return res, nil // no log yet: empty generation
		}
		return res, fmt.Errorf("wal: open for scan: %w", err)
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, scanBufSize)
	var hdr [8]byte
	var payload []byte
	var rec Record
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return res, nil // clean end
			}
			res.Torn = true // partial header
			return res, nil
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxRecordSize {
			res.Torn = true
			return res, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			res.Torn = true
			return res, nil
		}
		if crc32.Checksum(payload, crcTable) != crc {
			res.Torn = true
			return res, nil
		}
		if err := rec.decode(payload); err != nil {
			res.Torn = true
			return res, nil
		}
		res.LastLSN = rec.LSN
		res.GoodBytes += 8 + int64(length)
		if err := fn(&rec); err != nil {
			return res, err
		}
	}
}

// Repair scans the log like Scan, invoking fn for every intact record, then
// truncates the file just past the last of them so a Writer can append
// safely. It returns the scan result describing what survived.
func Repair(path string, fn func(*Record) error) (ScanResult, error) {
	return RepairFS(fault.OS{}, path, fn)
}

// RepairFS is Repair on an injectable filesystem.
func RepairFS(fsys fault.FS, path string, fn func(*Record) error) (ScanResult, error) {
	res, err := ScanFS(fsys, path, fn)
	if err != nil || !res.Torn {
		return res, err
	}
	if err := fsys.Truncate(path, res.GoodBytes); err != nil {
		return res, fmt.Errorf("wal: repair truncate: %w", err)
	}
	return res, nil
}
