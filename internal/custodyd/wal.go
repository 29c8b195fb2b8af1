package custodyd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
)

// walEntry is one line of the intent log: the op plus an FNV-1a checksum
// of its canonical encoding. The checksum distinguishes a torn tail (a
// crash mid-append — tolerated by truncation) from interior corruption
// (refused: replaying past a damaged op would silently fork state).
type walEntry struct {
	Op  Op     `json:"op"`
	Sum string `json:"sum"`
}

// opSum checksums an op's canonical JSON encoding.
func opSum(opJSON []byte) string {
	hash := uint64(14695981039346656037)
	for i := 0; i < len(opJSON); i++ {
		hash = (hash ^ uint64(opJSON[i])) * 0x100000001B3
	}
	return fmt.Sprintf("%016x", hash)
}

// WAL is the file-backed Journal: one checksummed JSON line per op,
// fsynced on every append (write-ahead of apply, so an op observed in
// state is always recoverable from disk).
type WAL struct {
	path string
	f    *os.File
	ops  []Op
}

// OpenWAL opens (or creates) the intent log at path, parsing every entry.
// Append writes an entry and its newline in one call, so only a
// newline-terminated line is committed: an unterminated final line is a
// torn append, even when it parses, and is truncated away. Damage to any
// terminated line is an error.
func OpenWAL(path string) (*WAL, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("custodyd: read wal: %w", err)
	}
	w := &WAL{path: path}
	if len(data) > 0 {
		// The element after the last newline is empty in a well-formed
		// file; anything there is the torn tail.
		lines := strings.Split(string(data), "\n")
		tail := lines[len(lines)-1]
		for i, ln := range lines[:len(lines)-1] {
			if ln == "" {
				continue
			}
			op, perr := parseWALLine(ln)
			if perr != nil {
				return nil, fmt.Errorf("custodyd: wal %s line %d: %w", path, i+1, perr)
			}
			w.ops = append(w.ops, op)
		}
		if tail != "" {
			if terr := os.Truncate(path, int64(len(data)-len(tail))); terr != nil {
				return nil, fmt.Errorf("custodyd: truncate torn wal tail: %w", terr)
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("custodyd: open wal for append: %w", err)
	}
	w.f = f
	return w, nil
}

// parseWALLine decodes and checksums one entry.
func parseWALLine(ln string) (Op, error) {
	var e walEntry
	if err := json.Unmarshal([]byte(ln), &e); err != nil {
		return Op{}, fmt.Errorf("malformed entry: %w", err)
	}
	opJSON, err := json.Marshal(e.Op)
	if err != nil {
		return Op{}, fmt.Errorf("re-encode entry: %w", err)
	}
	if sum := opSum(opJSON); sum != e.Sum {
		return Op{}, fmt.Errorf("checksum mismatch: have %s, want %s", e.Sum, sum)
	}
	return e.Op, nil
}

// Append implements Journal: encode, checksum, write, fsync.
func (w *WAL) Append(op Op) error {
	opJSON, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("custodyd: encode op: %w", err)
	}
	entry, err := json.Marshal(walEntry{Op: op, Sum: opSum(opJSON)})
	if err != nil {
		return fmt.Errorf("custodyd: encode wal entry: %w", err)
	}
	if _, err := w.f.Write(append(entry, '\n')); err != nil {
		return fmt.Errorf("custodyd: wal write: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("custodyd: wal sync: %w", err)
	}
	w.ops = append(w.ops, op)
	return nil
}

// Ops implements Journal; the returned slice is a copy.
func (w *WAL) Ops() []Op {
	return append([]Op(nil), w.ops...)
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }
