package custodyd

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// On-disk layout inside the service directory.
const (
	walFile        = "wal.jsonl"
	checkpointFile = "checkpoint.json"
	metricsFile    = "metrics.om"
)

// BootInfo reports what recovery found and verified.
type BootInfo struct {
	Recovered          bool   `json:"recovered"`           // a non-empty intent log was replayed
	ReplayedOps        int    `json:"replayed_ops"`        // ops replayed from the log
	CheckpointSeq      uint64 `json:"checkpoint_seq"`      // 0 when no checkpoint existed
	CheckpointVerified bool   `json:"checkpoint_verified"` // digest cross-check passed
}

// Open boots a Service from a state directory in one replay: load any
// checkpoint, open (or create) the intent log, and replay it into a fresh
// stack, checking the checkpoint's digest when replay reaches its seq. A
// diverging checkpoint, or one beyond the log, is an error: log and
// snapshot describe different histories, and serving either would fork.
func Open(dir string, cfg Config) (*Service, *WAL, BootInfo, error) {
	var info BootInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, info, fmt.Errorf("custodyd: state dir: %w", err)
	}
	verify := func(*Service) error { return nil }
	cp, cpErr := LoadCheckpoint(filepath.Join(dir, checkpointFile))
	switch {
	case cpErr == nil:
		info.CheckpointSeq = cp.Snapshot.Seq
		verify = func(s *Service) error {
			if s.Seq() != cp.Snapshot.Seq {
				return nil
			}
			if digest := s.Digest(); digest != cp.Snapshot.Digest {
				return fmt.Errorf("custodyd: checkpoint diverges from intent-log replay at seq %d: checkpoint digest %s, replay digest %s",
					cp.Snapshot.Seq, cp.Snapshot.Digest, digest)
			}
			info.CheckpointVerified = true
			return nil
		}
	case !errors.Is(cpErr, fs.ErrNotExist):
		return nil, nil, info, cpErr
	}
	wal, err := OpenWAL(filepath.Join(dir, walFile))
	if err != nil {
		return nil, nil, info, err
	}
	svc, err := newService(cfg, wal, verify)
	if err == nil && cpErr == nil && !info.CheckpointVerified {
		err = fmt.Errorf("custodyd: checkpoint seq %d beyond intent log (%d ops)", cp.Snapshot.Seq, svc.Seq())
	}
	if err != nil {
		return nil, nil, info, errors.Join(err, wal.Close())
	}
	info.ReplayedOps = int(svc.Seq())
	info.Recovered = info.ReplayedOps > 0
	return svc, wal, info, nil
}
