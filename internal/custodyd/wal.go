package custodyd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
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

// appendFile is the part of *os.File a WAL uses; tests substitute one
// that fails.
type appendFile interface {
	io.Writer
	io.ReaderAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// WAL is the file-backed Journal: one checksummed JSON line per op,
// fsynced on every append (write-ahead of apply, so an op observed in
// state is always recoverable from disk). The file is the only copy of
// the log; the WAL keeps just its committed length.
type WAL struct {
	path string
	f    appendFile
	size int64 // committed length: the end of the last terminated entry
}

// OpenWAL opens (or creates) the intent log at path, decoding nothing.
// Append writes an entry and its newline in one call, so whatever follows
// the last newline is a torn append, even when it parses, and is truncated
// away. Replay refuses damage to any terminated line. Creating the log
// syncs its directory, so the new entry outlives a power cut; reopening
// an existing log does not.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR|os.O_APPEND, 0o644)
		if err == nil {
			if serr := syncDir(filepath.Dir(path)); serr != nil {
				return nil, errors.Join(fmt.Errorf("custodyd: sync wal dir: %w", serr), f.Close())
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("custodyd: open wal: %w", err)
	}
	size, err := committedSize(f)
	if err == nil {
		err = f.Truncate(size)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("custodyd: truncate torn wal tail: %w", err), f.Close())
	}
	return &WAL{path: path, f: f, size: size}, nil
}

// committedSize returns the offset just past f's last newline, reading
// backwards from the end so only the tail is read.
func committedSize(f *os.File) (int64, error) {
	end, err := f.Seek(0, io.SeekEnd)
	buf := make([]byte, 4096)
	for err == nil && end > 0 {
		n := min(end, int64(len(buf)))
		if _, err = f.ReadAt(buf[:n], end-n); err == nil {
			if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
				return end - n + int64(i) + 1, nil
			}
			end -= n
		}
	}
	return 0, err
}

// Replay implements Journal: it streams the committed entries from the
// file, decoding and checksumming each before handing it to fn.
func (w *WAL) Replay(fn func(Op) error) error {
	r := bufio.NewReader(io.NewSectionReader(w.f, 0, w.size))
	for line := 1; ; line++ {
		ln, err := r.ReadBytes('\n')
		switch {
		case err == io.EOF:
			return nil // the committed length ends on a newline
		case err != nil:
			return fmt.Errorf("custodyd: read wal: %w", err)
		case len(ln) == 1:
			continue // blank line
		}
		op, err := parseWALLine(ln[:len(ln)-1])
		if err != nil {
			return fmt.Errorf("custodyd: wal %s line %d: %w", w.path, line, err)
		}
		if err := fn(op); err != nil {
			return err
		}
	}
}

// parseWALLine decodes and checksums one entry.
func parseWALLine(ln []byte) (Op, error) {
	var e walEntry
	if err := json.Unmarshal(ln, &e); err != nil {
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

// Append implements Journal: encode, checksum, write, fsync. When the write
// or the fsync fails, the file is truncated back to its committed length,
// so a failed append leaves no entry for the next boot to replay.
func (w *WAL) Append(op Op) error {
	opJSON, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("custodyd: encode op: %w", err)
	}
	entry, err := json.Marshal(walEntry{Op: op, Sum: opSum(opJSON)})
	if err != nil {
		return fmt.Errorf("custodyd: encode wal entry: %w", err)
	}
	entry = append(entry, '\n')
	if _, err := w.f.Write(entry); err != nil {
		return w.undo(fmt.Errorf("custodyd: wal write: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return w.undo(fmt.Errorf("custodyd: wal sync: %w", err))
	}
	w.size += int64(len(entry))
	return nil
}

// undo truncates the file back to its committed length after a failed
// append and syncs that, returning err joined with any failure to do so.
func (w *WAL) undo(err error) error {
	terr := w.f.Truncate(w.size)
	if terr == nil {
		terr = w.f.Sync()
	}
	if terr != nil {
		return errors.Join(err, fmt.Errorf("custodyd: wal undo of failed append: %w", terr))
	}
	return err
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }
