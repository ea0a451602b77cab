package fault

// Site names one fault-injection probe point. Production code passes a Site
// constant declared in THIS file to Inject; the const block below therefore
// doubles as the registry of every probe compiled into the binary, and the
// faultsite analyzer (internal/analyzers) rejects Inject calls whose site is
// an ad-hoc string or a constant declared anywhere else. Keeping the surface
// in one block is what makes the build-tag-free injection auditable: the
// chaos suites arm against these names, and a renamed or drive-by site would
// otherwise silently decouple the tests from the probes.
type Site string

// The registered probe sites. Naming convention: <package>/<path through the
// code>, matching the package that calls Inject.
const (
	// SiteCoreCompute fires at the top of every sequential cover
	// computation, inside the panic boundary that quarantines pooled
	// scratch (core/core.go).
	SiteCoreCompute Site = "core/compute"

	// SiteCoreParallelWorker fires in each SCC-partitioned cover worker
	// before it builds its induced subgraph, inside runJob's recover
	// (core/parallel.go).
	SiteCoreParallelWorker Site = "core/parallel-worker"

	// SiteDynamicApplyBatch fires at the head of Maintainer.ApplyBatch,
	// under the server writer's rollback-and-replay containment
	// (dynamic/batch.go).
	SiteDynamicApplyBatch Site = "dynamic/apply-batch"

	// SiteServerReader fires on every admitted reader request, inside the
	// per-request recovery that turns a panic into a 500
	// (server/handlers.go).
	SiteServerReader Site = "server/reader"

	// SiteWALAppend fires at the top of every write-ahead-log append,
	// before any bytes reach the segment file; a panic here must leave the
	// log byte-identical and the batch unacknowledged (wal/wal.go).
	SiteWALAppend Site = "wal/append"

	// SiteWALFsync fires before the log's fsync, after the record's bytes
	// are in the file; a panic here simulates a sync failure and must roll
	// the unsynced record back out of the log (wal/wal.go).
	SiteWALFsync Site = "wal/fsync"

	// SiteWALCheckpoint fires at the head of a snapshot checkpoint write;
	// a panic here must leave the previous checkpoint authoritative and
	// the log un-rotated (wal/checkpoint.go).
	SiteWALCheckpoint Site = "wal/checkpoint"

	// SiteServerRecoverReplay fires once per WAL record replayed during
	// tdbserve startup recovery, as the record is decoded and before any
	// record is applied; a panic here simulates a crash mid-recovery,
	// which must stay restartable (server/durability.go).
	SiteServerRecoverReplay Site = "server/recover-replay"
)

// Sites returns every registered probe site, for audit tests and tooling.
func Sites() []Site {
	return []Site{
		SiteCoreCompute,
		SiteCoreParallelWorker,
		SiteDynamicApplyBatch,
		SiteServerReader,
		SiteWALAppend,
		SiteWALFsync,
		SiteWALCheckpoint,
		SiteServerRecoverReplay,
	}
}
