package custodyd

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

func walOps() []Op {
	return []Op{
		{Seq: 1, Kind: OpRegisterApp, Name: "a"},
		{Seq: 2, Kind: OpSubmitJob, Tenant: 0, Workload: "Sort", File: 1},
		{Seq: 3, Kind: OpRound, Step: 1.5},
	}
}

// replayed reads a journal's ops back through Replay.
func replayed(t *testing.T, jnl Journal) []Op {
	t.Helper()
	var ops []Op
	if err := jnl.Replay(func(op Op) error {
		ops = append(ops, op)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ops
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range walOps() {
		if err := w.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := replayed(t, w2); !reflect.DeepEqual(got, walOps()) {
		t.Fatalf("reopened ops = %+v, want %+v", got, walOps())
	}
}

// TestWALTornTail crashes mid-append: an unterminated final line must be
// dropped at reopen (and physically truncated so the next append starts on
// a clean line boundary), while the committed prefix survives. An entry is
// committed only once its newline is on disk, so a complete, well-checksummed
// entry that lost its newline is torn too.
func TestWALTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear func(t *testing.T, path string)
		want []Op
	}{
		{"partial-entry", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`{"op":{"seq":4,"kind":"ro`); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}, walOps()},
		{"missing-newline", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-1); err != nil {
				t.Fatal(err)
			}
		}, walOps()[:2]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.jsonl")
			w, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range walOps() {
				if err := w.Append(op); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			tc.tear(t, path)

			w2, err := OpenWAL(path)
			if err != nil {
				t.Fatalf("torn tail not tolerated: %v", err)
			}
			if got := replayed(t, w2); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ops after torn tail = %+v, want %+v", got, tc.want)
			}
			next := Op{Seq: uint64(len(tc.want) + 1), Kind: OpDrain}
			if err := w2.Append(next); err != nil {
				t.Fatal(err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			w3, err := OpenWAL(path)
			if err != nil {
				t.Fatalf("reopen after truncate+append: %v", err)
			}
			defer w3.Close()
			if got, want := replayed(t, w3), append(tc.want, next); !reflect.DeepEqual(got, want) {
				t.Fatalf("ops after truncate+append = %+v, want %+v", got, want)
			}
		})
	}
}

// TestWALInteriorCorruption: damage before the tail is corruption, not a
// torn append, and boot must refuse it, naming the line.
func TestWALInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walFile)
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range walOps() {
		if err := w.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	lines[1] = strings.Replace(lines[1], `"kind":"submit-job"`, `"kind":"round"`, 1) // checksum now lies
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir, testConfig()); err == nil || !strings.Contains(err.Error(), "line 2: checksum") {
		t.Fatalf("interior corruption not detected: %v", err)
	}
}

// faultyFile makes each named call ("write", "enospc", "sync", "truncate")
// fail once. A failing "write" lands half the entry and reports a short
// write; "enospc" lands a third of it and reports the disk full, as write(2)
// does once the filesystem runs out of blocks mid-entry.
type faultyFile struct {
	*os.File
	fail map[string]bool
}

var (
	errSync     = errors.New("fsync: input/output error")
	errTruncate = errors.New("ftruncate: input/output error")
)

// failing reports whether call should fail now, and disarms it if so.
func (f *faultyFile) failing(call string) bool {
	if !f.fail[call] {
		return false
	}
	delete(f.fail, call)
	return true
}

func (f *faultyFile) Write(p []byte) (int, error) {
	switch {
	case f.failing("write"):
		n, err := f.File.Write(p[:len(p)/2])
		return n, errors.Join(io.ErrShortWrite, err)
	case f.failing("enospc"):
		n, err := f.File.Write(p[:len(p)/3])
		return n, errors.Join(&os.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}, err)
	}
	return f.File.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.failing("sync") {
		return errSync
	}
	return f.File.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failing("truncate") {
		return errTruncate
	}
	return f.File.Truncate(size)
}

// TestWALFailedAppendLeavesNoTrace: a short write, a full disk or a failed
// fsync must truncate the file back to the acknowledged ops, so the next boot replays
// exactly those. Only when that truncation fails too can the
// unacknowledged op survive, and then only because the service stopped
// before acknowledging it. Every case breaks the committing service.
func TestWALFailedAppendLeavesNoTrace(t *testing.T) {
	cases := []struct {
		name     string
		fail     []string
		wantErrs []error // each must be in the failed commit's error chain
		survives bool    // the failed op is still in the log after reopening
	}{
		{name: "write", fail: []string{"write"}, wantErrs: []error{io.ErrShortWrite}},
		{name: "enospc", fail: []string{"enospc"}, wantErrs: []error{syscall.ENOSPC}},
		{name: "sync", fail: []string{"sync"}, wantErrs: []error{errSync}},
		{name: "sync-and-truncate", fail: []string{"sync", "truncate"},
			wantErrs: []error{errSync, errTruncate}, survives: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.jsonl")
			w, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := NewService(testConfig(), w)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Register("a"); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Submit(0, "Sort", 1); err != nil {
				t.Fatal(err)
			}
			acked := replayed(t, w)
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			fail := map[string]bool{}
			for _, call := range c.fail {
				fail[call] = true
			}
			w.f = &faultyFile{File: w.f.(*os.File), fail: fail}
			_, err = svc.Register("b")
			if err == nil {
				t.Fatalf("commit succeeded through a failing %s", strings.Join(c.fail, " and "))
			}
			for _, want := range c.wantErrs {
				if !errors.Is(err, want) {
					t.Errorf("commit error %q does not name %q", err, want)
				}
			}
			if svc.Broken() == nil {
				t.Fatal("service not broken after a failed commit")
			}
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if kept := after.Size() > before.Size(); kept != c.survives || !kept && after.Size() != before.Size() {
				t.Fatalf("log is %d bytes after the failed append, was %d before", after.Size(), before.Size())
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			want := acked
			if c.survives {
				want = append(want, Op{Seq: 3, Kind: OpRegisterApp, Name: "b"})
			}
			if got := replayed(t, w2); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened ops = %+v, want %+v", got, want)
			}
		})
	}
}

func TestOpenVerifiesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	svc, wal, info, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if info.Recovered {
		t.Fatal("cold boot reported as recovery")
	}
	driveScript(t, svc)
	// Checkpoint mid-history, then keep going: reopen must verify the
	// checkpoint by replaying its prefix even though the log is longer.
	if err := WriteCheckpoint(filepath.Join(dir, checkpointFile), CheckpointFrom(svc)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(0, "PageRank", 0); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	want := svc.Digest()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, wal2, info2, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if !info2.Recovered || !info2.CheckpointVerified {
		t.Fatalf("boot info %+v: want recovered + checkpoint verified", info2)
	}
	if got := svc2.Digest(); got != want {
		t.Fatalf("recovered digest %s != %s", got, want)
	}
}

// TestOpenRejectsDivergingCheckpoint: a checkpoint whose digest disagrees
// with the replay, wherever it sits in the log, or whose seq lies beyond
// the log, refuses boot.
func TestOpenRejectsDivergingCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name         string
		script, more bool // commit driveScript before the checkpoint, more ops after it
		forge        func(*Snapshot)
		want         string
	}{
		{"forged-at-genesis", false, true, func(s *Snapshot) { s.Digest = "deadbeefdeadbeef" }, "diverges"},
		{"forged-at-tail", true, false, func(s *Snapshot) { s.Digest = "deadbeefdeadbeef" }, "diverges"},
		{"forged-behind-tail", true, true, func(s *Snapshot) { s.Digest = "deadbeefdeadbeef" }, "diverges"},
		{"beyond-log", true, false, func(s *Snapshot) { s.Seq++ }, "beyond intent log"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			svc, wal, _, err := Open(dir, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			if tc.script {
				driveScript(t, svc)
			}
			cp := CheckpointFrom(svc)
			tc.forge(&cp.Snapshot)
			if err := WriteCheckpoint(filepath.Join(dir, checkpointFile), cp); err != nil {
				t.Fatal(err)
			}
			if tc.more {
				if _, err := svc.Register("carol"); err != nil {
					t.Fatal(err)
				}
			}
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := Open(dir, testConfig()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("checkpoint not rejected with %q: %v", tc.want, err)
			}
		})
	}
}
