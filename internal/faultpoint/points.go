package faultpoint

// Known is the registry of every fault point planted in the codebase —
// the single source of truth chaos arming specs (Makefile chaos target,
// CI chaos job, HDPOWER_FAULTPOINTS) are written against.
//
// hdlint's faultpoint analyzer cross-checks this list on every lint run:
// each entry must be unique, must have a faultpoint.Hit or
// faultpoint.Delay call site somewhere in the module, and must be
// exercised by a Makefile arming spec or a test; conversely, every call
// site must use a literal name registered here. Add the name to this
// list in the same change that plants the point, and wire it into the
// Makefile chaos target so chaos coverage never silently decays.
//
//hdlint:allow deadexport the registry hdlint's faultpoint analyzer reads and checks every Hit and Delay site against
var Known = []string{
	"atomicio.write",    // torn durable write (internal/atomicio.WriteFile)
	"bitsim.batch",      // slow bit-parallel batch (internal/bitsim CycleBatch)
	"core.merge",        // shard merge failure (internal/core Characterize)
	"core.shard",        // straggling shard worker (internal/core runCharShard)
	"fleet.heartbeat",   // dropped lease heartbeat (internal/fleet coordinator)
	"fleet.lease",       // failed lease grant (internal/fleet coordinator)
	"fleet.merge",       // deferred partial-accumulator merge (internal/fleet coordinator)
	"fleet.upload",      // torn partial-accumulator upload (internal/fleet worker)
	"serve.build",       // transient model-build dispatch failure (internal/serve)
	"telemetry.capture", // SLO-breach diagnostic capture write failure (internal/serve)
}
