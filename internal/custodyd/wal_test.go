package custodyd

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func walOps() []Op {
	return []Op{
		{Seq: 1, Kind: OpRegisterApp, Name: "a"},
		{Seq: 2, Kind: OpSubmitJob, Tenant: 0, Workload: "Sort", File: 1},
		{Seq: 3, Kind: OpRound, Step: 1.5},
	}
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
	if got := w2.Ops(); !reflect.DeepEqual(got, walOps()) {
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
			if got := w2.Ops(); !reflect.DeepEqual(got, tc.want) {
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
			if got, want := w3.Ops(), append(tc.want, next); !reflect.DeepEqual(got, want) {
				t.Fatalf("ops after truncate+append = %+v, want %+v", got, want)
			}
		})
	}
}

// TestWALInteriorCorruption: damage before the tail is corruption, not a
// torn append, and must refuse to open.
func TestWALInteriorCorruption(t *testing.T) {
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
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	lines[1] = strings.Replace(lines[1], `"kind":"submit-job"`, `"kind":"round"`, 1) // checksum now lies
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("interior corruption not detected: %v", err)
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

func TestOpenRejectsDivergingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	svc, wal, _, err := Open(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	driveScript(t, svc)
	cp := CheckpointFrom(svc)
	cp.Snapshot.Digest = "deadbeefdeadbeef" // forged history
	if err := WriteCheckpoint(filepath.Join(dir, checkpointFile), cp); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir, testConfig()); err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("diverging checkpoint not rejected: %v", err)
	}
}
