package core

import "repro/internal/core/stagegraph"

// The timed stages the pipeline programs bracket, one per StageNames()
// phase. Each runs on the simulation node ("node" in every pipeline)
// except the network transfer, which occupies the cluster's "link".
var (
	// stgSimulate advances one output iteration of the solver and
	// charges the full virtual compute cost.
	stgSimulate = stagegraph.Stage{Phase: StageSimulation, On: "node"}
	// stgWriteCkpt encodes and durably stores one checkpoint (the
	// nnwrite stage of Fig. 4).
	stgWriteCkpt = stagegraph.Stage{Phase: StageWrite, On: "node"}
	// stgReadCkpt reads a checkpoint back cold (the nnread stage).
	stgReadCkpt = stagegraph.Stage{Phase: StageRead, On: "node"}
	// stgRecover recomputes a lost checkpoint's field from the initial
	// conditions (deterministic re-simulation).
	stgRecover = stagegraph.Stage{Phase: StageRecovery, On: "node"}
	// stgRender is one visualization event on the simulation node:
	// render a restored (post-processing) or live (in-situ) field and
	// flush the frame, with the in-situ event's cinema variants,
	// compression and reduced data product.
	stgRender = stagegraph.Stage{Phase: StageViz, On: "node"}
	// stgNetTransfer ships one event's payload over the link; the
	// simulation blocks only for the serialized transfer.
	stgNetTransfer = stagegraph.Stage{Phase: StageNet, On: "link"}
)
