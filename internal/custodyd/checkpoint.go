package custodyd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// checkpointVersion gates the on-disk format.
const checkpointVersion = 1

// Checkpoint is a periodic snapshot of the allocator-visible state. It is
// deliberately NOT the replay source — the driver stack's full state
// (event queue, flows, warm session arenas) is not serializable — it is a
// verifier: recovery replays the intent log from genesis once and checks
// the digest when replay passes the checkpoint's sequence number. It
// doubles as a fast status page for operators while the daemon is down.
type Checkpoint struct {
	Version  int      `json:"version"`
	Snapshot Snapshot `json:"snapshot"`
}

// CheckpointFrom snapshots a service.
func CheckpointFrom(s *Service) Checkpoint {
	return Checkpoint{Version: checkpointVersion, Snapshot: s.Snapshot()}
}

// WriteCheckpoint atomically persists a checkpoint (tmp + fsync + rename),
// so a crash mid-write leaves the previous checkpoint intact.
func WriteCheckpoint(path string, cp Checkpoint) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("custodyd: encode checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("custodyd: checkpoint tmp: %w", err)
	}
	defer os.Remove(tmp.Name()) //custody:ignore errdrop best-effort cleanup; the rename below already moved the file on success
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		cerr := tmp.Close()
		return fmt.Errorf("custodyd: checkpoint write: %w (close: %v)", err, cerr)
	}
	if err := tmp.Sync(); err != nil {
		cerr := tmp.Close()
		return fmt.Errorf("custodyd: checkpoint sync: %w (close: %v)", err, cerr)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("custodyd: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("custodyd: checkpoint rename: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (Checkpoint, error) {
	var cp Checkpoint
	data, err := os.ReadFile(path)
	if err != nil {
		return cp, err
	}
	if err := json.Unmarshal(data, &cp); err != nil {
		return cp, fmt.Errorf("custodyd: decode checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return cp, fmt.Errorf("custodyd: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	return cp, nil
}
