package custodyd

import (
	"fmt"
	"strings"

	"repro/internal/driver"
	"repro/internal/hdfs"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/trace"
)

// FileSpec describes one pre-created HDFS input file submissions can
// reference by index. The file set is part of the deterministic
// configuration: it must be identical across restarts for replay to
// reproduce state.
type FileSpec struct {
	Name   string
	Blocks int64
}

// Config shapes the deterministic core of a Service. Like the driver's
// tenant registry, everything here is fixed at boot: the service
// pre-registers MaxTenants application slots (the driver forbids
// registration after Start) and register-app ops activate them one by one.
type Config struct {
	Seed uint64

	// Cluster shape.
	Nodes            int
	ExecutorsPerNode int
	SlotsPerExecutor int
	RackSize         int
	Replication      int
	BlockSize        int64

	// MaxTenants caps concurrently registered applications; register-app
	// beyond it is refused with ErrTenantQuota.
	MaxTenants int

	// Files are the HDFS inputs created at boot.
	Files []FileSpec

	// AuditEveryOp runs Driver.Audit after every applied op, turning any
	// invariant breach into an op error instead of a latent corruption.
	AuditEveryOp bool

	// Policy selects the manager's allocation policy ("" or "custody" keeps
	// the built-in Algorithm 1+2 session; "quincy" | "wfair" | "locmatch"
	// swap in a contender, DESIGN.md §16). The choice is part of the
	// deterministic configuration, like the file set: it must be identical
	// across restarts for replay to reproduce state.
	Policy string

	// CacheMB enables the per-node block-cache tier (0 keeps it off, the
	// default). The cache is part of the deterministic core, not durable
	// state: a crash loses it and replay rebuilds it cold, then re-warms it
	// through the same op stream — so recovery digests are unaffected.
	CacheMB     int64
	CachePolicy string // "" | "lru" | "2q"

	// Tracer receives driver timeline events (nil → discarded). The model
	// checker uses it to feed its shadow model during live runs and replay.
	Tracer trace.Tracer

	// BootHook runs after the fresh stack is built and before the journal
	// replays — the only window where a harness can attach observers that
	// need the new cluster topology (the model checker's forward tracer).
	BootHook func(*Service)
}

// roundSimStep is the simulated-time slice a normal round covers;
// degradedStepFactor scales it in degraded mode (coarser rounds).
const (
	roundSimStep       = 1.0
	degradedStepFactor = 4
)

// DefaultConfig is the service-mode cluster: small enough that a round is
// sub-millisecond, contended enough that allocation competes.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Nodes:            16,
		ExecutorsPerNode: 2,
		SlotsPerExecutor: 2,
		RackSize:         4,
		Replication:      2,
		BlockSize:        32 << 20,
		MaxTenants:       8,
		Files: []FileSpec{
			{Name: "svc-a", Blocks: 4},
			{Name: "svc-b", Blocks: 6},
		},
	}
}

// fill applies defaults to zero fields.
func (c *Config) fill() {
	d := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if c.ExecutorsPerNode == 0 {
		c.ExecutorsPerNode = d.ExecutorsPerNode
	}
	if c.SlotsPerExecutor == 0 {
		c.SlotsPerExecutor = d.SlotsPerExecutor
	}
	if c.RackSize == 0 {
		c.RackSize = d.RackSize
	}
	if c.Replication == 0 {
		c.Replication = d.Replication
	}
	if c.BlockSize == 0 {
		c.BlockSize = d.BlockSize
	}
	if c.MaxTenants == 0 {
		c.MaxTenants = d.MaxTenants
	}
	if len(c.Files) == 0 {
		c.Files = d.Files
	}
}

// validate rejects configurations the driver would panic on.
func (c Config) validate() error {
	if c.MaxTenants <= 0 {
		return fmt.Errorf("custodyd: MaxTenants = %d", c.MaxTenants)
	}
	if len(c.Files) == 0 {
		return fmt.Errorf("custodyd: no input files configured")
	}
	for _, f := range c.Files {
		if f.Name == "" || f.Blocks <= 0 {
			return fmt.Errorf("custodyd: bad file spec %+v", f)
		}
	}
	if c.CacheMB < 0 {
		return fmt.Errorf("custodyd: CacheMB = %d", c.CacheMB)
	}
	if !hdfs.ValidCachePolicy(hdfs.CachePolicy(c.CachePolicy)) {
		return fmt.Errorf("custodyd: CachePolicy = %q", c.CachePolicy)
	}
	if c.Policy != "" {
		if _, err := policy.New(c.Policy); err != nil {
			return fmt.Errorf("custodyd: Policy = %q (valid: %s)", c.Policy, strings.Join(policy.Names(), " | "))
		}
	}
	return nil
}

// DriverConfig derives the driver configuration: resilience on (a
// long-running service must survive faults), no startup noise (recovery
// digests must not depend on anything but the op stream). The model
// checker's driver mode builds its bare driver from it, so both of its
// modes check the same stack shape.
func (c Config) DriverConfig(mgr manager.Manager) driver.Config {
	dcfg := driver.DefaultConfig()
	dcfg.Seed = c.Seed
	dcfg.Nodes = c.Nodes
	dcfg.ExecutorsPerNode = c.ExecutorsPerNode
	dcfg.SlotsPerExecutor = c.SlotsPerExecutor
	dcfg.RackSize = c.RackSize
	dcfg.Replication = c.Replication
	dcfg.BlockSize = c.BlockSize
	dcfg.Net = netsim.Config{UplinkBps: 250e6, DownlinkBps: 5e9, DiskBps: 400e6}
	dcfg.LocalityWait = 0.5
	dcfg.ExecutorStartupSec = 0
	dcfg.ComputeNoise = 0
	dcfg.EnableResilience()
	if c.CacheMB > 0 {
		dcfg.EnableCache(c.CacheMB<<20, hdfs.CachePolicy(c.CachePolicy))
		dcfg.ReplicaSelection = &hdfs.CacheAwareSelector{}
	}
	dcfg.Manager = mgr
	dcfg.Tracer = c.Tracer
	return dcfg
}
