// Package ragnar is the public API of the Ragnar reproduction: a
// discrete-event RDMA NIC and fabric simulator, an ibverbs-like verbs layer,
// the paper's reverse-engineering microbenchmarks, the three volatile
// covert channels, the two real-application side channels and the defense
// study — everything needed to regenerate the tables and figures of
// "Ragnar: Exploring Volatile-Channel Vulnerabilities on RDMA NIC"
// (DAC 2025).
//
// The package re-exports the library's stable surface; the internal
// packages carry the implementation. A typical session:
//
//	cluster := ragnar.NewCluster(ragnar.DefaultClusterConfig(ragnar.CX5))
//	mr, _ := cluster.RegisterServerMR(2 << 20)
//	conn, _ := cluster.Dial(0, 10)
//	prober := &ragnar.Prober{QP: conn.QP, CQ: conn.CQ,
//	    Remote: mr.Describe(0), MsgSize: 64, Depth: 8}
//	samples, _ := prober.Measure(cluster.Eng, 1000)
//	fmt.Println(ragnar.SummarizeULI(samples))
//
// See the runnable programs under examples/ for complete scenarios.
package ragnar

import (
	"github.com/thu-has/ragnar/internal/appdb"
	"github.com/thu-has/ragnar/internal/appdisagg"
	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/classifier"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/defense"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/pythia"
	"github.com/thu-has/ragnar/internal/revengine"
	"github.com/thu-has/ragnar/internal/sidechan"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/telemetry"
	"github.com/thu-has/ragnar/internal/uli"
	"github.com/thu-has/ragnar/internal/verbs"
)

// ---------------------------------------------------------------------------
// Simulation time
// ---------------------------------------------------------------------------

// Time is a point in virtual time (picoseconds since simulation start).
type Time = sim.Time

// Duration is a span of virtual time.
type Duration = sim.Duration

// Engine is the deterministic discrete-event scheduler all models run on.
type Engine = sim.Engine

// Time unit constants.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEngine returns a deterministic engine for the given seed.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// ---------------------------------------------------------------------------
// Hardware models
// ---------------------------------------------------------------------------

// Profile describes one RNIC generation (Table III plus the calibrated
// microarchitectural constants the attacks exploit).
type Profile = nic.Profile

// Modelled adapters.
var (
	// CX4 is the ConnectX-4 model (25 Gbps).
	CX4 = nic.CX4
	// CX5 is the ConnectX-5 model (100 Gbps).
	CX5 = nic.CX5
	// CX6 is the ConnectX-6 model (200 Gbps).
	CX6 = nic.CX6
	// CX5ISO is the isolation-hardened ConnectX-5 variant (DWRR egress,
	// per-tenant responder credit pools, no NoC boost).
	CX5ISO = nic.CX5ISO
	// Profiles lists the selectable adapters: the paper's three plus CX5-ISO.
	Profiles = nic.Profiles
	// PaperProfiles lists only the paper's adapters in Table III order.
	PaperProfiles = nic.PaperProfiles
)

// ProfileByName resolves "cx4"/"ConnectX-5"-style names.
func ProfileByName(name string) (Profile, bool) { return nic.ProfileByName(name) }

// ---------------------------------------------------------------------------
// Verbs layer
// ---------------------------------------------------------------------------

// Context is a device context (host + RNIC), PD a protection domain, MR a
// registered memory region, QP a reliable-connected queue pair, CQ a
// completion queue — the ibverbs surface of the simulator.
type (
	Context   = verbs.Context
	PD        = verbs.PD
	MR        = verbs.MR
	QP        = verbs.QP
	CQ        = verbs.CQ
	RemoteBuf = verbs.RemoteBuf
)

// Access flags for memory registration.
const (
	AccessLocalWrite   = verbs.AccessLocalWrite
	AccessRemoteRead   = verbs.AccessRemoteRead
	AccessRemoteWrite  = verbs.AccessRemoteWrite
	AccessRemoteAtomic = verbs.AccessRemoteAtomic
)

// ---------------------------------------------------------------------------
// Lab topology
// ---------------------------------------------------------------------------

// Cluster is the standard attack topology: one server shared by N clients.
type Cluster = lab.Cluster

// ClusterConfig parameterises a cluster.
type ClusterConfig = lab.Config

// Conn is a connected client queue pair.
type Conn = lab.Conn

// DefaultClusterConfig mirrors the paper's testbed for a given adapter.
func DefaultClusterConfig(p Profile) ClusterConfig { return lab.DefaultConfig(p) }

// NewCluster builds the topology.
func NewCluster(cfg ClusterConfig) *Cluster { return lab.New(cfg) }

// Topology is a built rig of any shape (Cluster is its legacy alias); the
// builders below add switched multi-host scenarios to the classic pair.
type Topology = lab.Topology

// NewStar puts the server and cfg.Clients hosts behind one shared-buffer
// switch with PFC — the multi-tenant threat model.
func NewStar(cfg ClusterConfig) *Topology { return lab.Star(cfg) }

// ---------------------------------------------------------------------------
// ULI measurement (Section IV-C)
// ---------------------------------------------------------------------------

// Prober measures Unit Latency Increase with a sustained queue depth, for
// a fixed sample count (Measure) or until stopped (Start/Stop).
type Prober = uli.Prober

// ULISample is one probe observation; ULITrace a mean/percentile summary.
type (
	ULISample = uli.Sample
	ULITrace  = uli.Trace
)

// SummarizeULI reduces samples to mean and 10/90 percentiles, the form the
// paper's figures plot.
func SummarizeULI(samples []ULISample) ULITrace { return uli.Summarize(samples) }

// VerifyULILinearity fits Lat = k*(len_sq+1)+C across queue depths (the
// paper reports Pearson 0.9998).
var VerifyULILinearity = uli.VerifyLinearity

// ---------------------------------------------------------------------------
// Reverse engineering (Section IV)
// ---------------------------------------------------------------------------

// FlowSpec and FlowResult are the fluid contention model's inputs/outputs.
type (
	FlowSpec   = nic.FlowSpec
	FlowResult = nic.FlowResult
)

// Opcodes for FlowSpec.
const (
	OpWrite     = nic.OpWrite
	OpRead      = nic.OpRead
	OpSend      = nic.OpSend
	OpAtomicFAA = nic.OpAtomicFAA
	OpAtomicCAS = nic.OpAtomicCAS
)

// SolveContention computes steady-state bandwidth for concurrent flows
// sharing a server NIC (the Figure 4 engine).
func SolveContention(p Profile, flows []FlowSpec) []FlowResult { return nic.Solve(p, flows) }

// SoloBandwidth is a flow's uncontended allocation.
func SoloBandwidth(p Profile, f FlowSpec) FlowResult { return nic.Solo(p, f) }

// Sweeps behind Figures 4-8. Each takes a trailing workers argument (0 =
// NumCPU, 1 = sequential); results are byte-identical at any worker count
// because every cell derives its RNG stream from (seed, cell identity) —
// see sim.DeriveSeed and DESIGN.md §6.
var (
	PrioritySweep  = revengine.PrioritySweep
	AbsOffsetSweep = revengine.AbsOffsetSweep
	RelOffsetSweep = revengine.RelOffsetSweep
	InterMRSweep   = revengine.InterMRSweep
)

// SweepSpace configures the Grain-I/II sweep; DefaultSweepSpace matches the
// paper's >6000 combinations.
type SweepSpace = revengine.SweepSpace

// DefaultSweepSpace returns the paper-scale parameter grid.
func DefaultSweepSpace() SweepSpace { return revengine.DefaultSweepSpace() }

// ---------------------------------------------------------------------------
// Covert channels (Section V)
// ---------------------------------------------------------------------------

// Bits is a covert payload; ParseBits/RandomBits construct one.
type Bits = bitstream.Bits

// Bit-payload helpers.
var (
	ParseBits  = bitstream.ParseBits
	RandomBits = bitstream.RandomBits
)

// CovertResult is one Table V cell.
type CovertResult = covert.Result

// PriorityChannel is the Grain-I+II ~1 bps channel (Figure 9).
type PriorityChannel = covert.PriorityChannel

// NewPriorityChannel configures the Figure 9 setup for an adapter.
func NewPriorityChannel(p Profile) *PriorityChannel { return covert.NewPriorityChannel(p) }

// ULIChannel is the shared machinery of the Kbps-class channels.
type ULIChannel = covert.ULIChannel

// NewInterMRChannel builds the Grain-III channel (Table V: 31.8/63.6/84.3
// Kbps on CX-4/5/6).
func NewInterMRChannel(p Profile, seed int64) (*ULIChannel, error) {
	return covert.NewInterMRChannel(p, seed)
}

// NewIntraMRChannel builds the Grain-IV address-offset channel.
func NewIntraMRChannel(p Profile, seed int64) (*ULIChannel, error) {
	return covert.NewIntraMRChannel(p, seed)
}

// PythiaChannel is the persistent-channel baseline (~20 Kbps on CX-5).
type PythiaChannel = pythia.Channel

// NewPythiaChannel builds the baseline on a fresh cluster.
func NewPythiaChannel(p Profile, seed int64) (*PythiaChannel, error) {
	return pythia.New(p, seed)
}

// ---------------------------------------------------------------------------
// Side channels (Section VI)
// ---------------------------------------------------------------------------

// MonitorConfig, Detector and Pattern implement Algorithm 1.
type (
	MonitorConfig = sidechan.MonitorConfig
	Detector      = sidechan.Detector
	Pattern       = sidechan.Pattern
)

// Fingerprint verdicts.
const (
	PatternNull      = sidechan.PatternNull
	PatternShuffle   = sidechan.PatternShuffle
	PatternJoin      = sidechan.PatternJoin
	PatternSortMerge = sidechan.PatternSortMerge
)

// Fingerprinting API (Figure 12).
var (
	DefaultMonitorConfig = sidechan.DefaultMonitorConfig
	NewDetector          = sidechan.NewDetector
	Fingerprint          = sidechan.Fingerprint
)

// SnoopConfig and Snooper implement the Figure 13 attack.
type (
	SnoopConfig = sidechan.SnoopConfig
	Snooper     = sidechan.Snooper
	SnoopReport = sidechan.SnoopReport
)

// Snooping API (Figure 13).
var (
	DefaultSnoopConfig = sidechan.DefaultSnoopConfig
	NewSnooper         = sidechan.NewSnooper
	CollectSnoopData   = sidechan.CollectDataset
	RunSnoopAttack     = sidechan.RunSnoopAttack
)

// Dataset and the trace classifiers (the CNN stands in for ResNet18).
type (
	Dataset   = classifier.Dataset
	CNNConfig = classifier.CNNConfig
)

// Classifier API.
var (
	DefaultCNNConfig     = classifier.DefaultCNNConfig
	TrainCNN             = classifier.TrainCNN
	TrainNearestCentroid = classifier.TrainNearestCentroid
	EvaluateClassifier   = classifier.Evaluate
)

// ---------------------------------------------------------------------------
// Defenses (Section VII)
// ---------------------------------------------------------------------------

// Harmonic is the counter-based (Grain-I..III) isolation detector.
type Harmonic = defense.Harmonic

// Defense API.
var (
	TrainHarmonic   = defense.TrainHarmonic
	NoiseMitigation = defense.NoiseMitigation
)

// ---------------------------------------------------------------------------
// Real-world application substrates (Section VI victims)
// ---------------------------------------------------------------------------

// DB is the RDMA-based distributed database (shuffle/join workloads); Row
// its 64 B row; DBPhase a traffic phase of its schedule.
type (
	DB      = appdb.DB
	Row     = appdb.Row
	DBPhase = appdb.Phase
)

// Database API.
var (
	NewDB           = appdb.New
	ShufflePhases   = appdb.ShufflePhases
	JoinPhases      = appdb.JoinPhases
	SortMergePhases = appdb.SortMergePhases
)

// MemoryServer and TreeClient are the Sherman-style disaggregated-memory
// B+ tree (64 B KV entries over RDMA).
type (
	MemoryServer = appdisagg.MemoryServer
	TreeClient   = appdisagg.Client
)

// Disaggregated-memory API.
var (
	NewMemoryServer = appdisagg.NewMemoryServer
	NewTreeClient   = appdisagg.NewClient
)

// TreeValueBytes is the value payload of one 64 B tree entry.
const TreeValueBytes = appdisagg.ValueBytes

// ---------------------------------------------------------------------------
// Telemetry (ethtool / HARMONIC counter view)
// ---------------------------------------------------------------------------

// Snapshot is a counter reading; Sampler records a windowed series.
type (
	Snapshot       = telemetry.Snapshot
	CounterSampler = telemetry.Sampler
)

// Telemetry API.
var (
	Snap           = telemetry.Snap
	SnapshotDelta  = telemetry.Delta
	WindowedDeltas = telemetry.WindowedDeltas
	NewSampler     = telemetry.NewSampler
)

// ConstantTimeMitigation enables the Section VII hardware-partitioning
// defense (worst-case-padded translations) on a NIC.
var ConstantTimeMitigation = defense.ConstantTimeMitigation
