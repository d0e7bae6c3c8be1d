package core

import "repro/internal/core/stagegraph"

// stages.go defines the stage vocabulary every pipeline spec composes
// from: first-class stagegraph.Stage values with declared dataflow
// (what each consumes and produces) and resource bindings. A stage
// with a phase name is timed and trace-annotated by the engine; a
// stage with an empty phase is untimed glue nested inside a timed one
// (it documents the graph without splitting the paper's Fig. 4 phase
// structure).
//
// The dataflow value names: "solver" and "config" are spec inputs;
// "field" is the live solver field; "checkpoint" a stored checkpoint;
// "restored" a field read back (or re-simulated); "frame" an encoded
// PNG; "reduced" the in-situ reduced data product; "shipped" an event
// payload delivered over the link.

// Resource bindings. The simulation node binds as "node" in every
// pipeline; clustered pipelines add the "staging" node and the "link".
var (
	bindNode        = stagegraph.Binding{Kind: stagegraph.ResNode, On: "node"}
	bindDisk        = stagegraph.Binding{Kind: stagegraph.ResDisk, On: "node"}
	bindStaging     = stagegraph.Binding{Kind: stagegraph.ResNode, On: "staging"}
	bindStagingDisk = stagegraph.Binding{Kind: stagegraph.ResDisk, On: "staging"}
	bindLink        = stagegraph.Binding{Kind: stagegraph.ResLink, On: "link"}
)

// The simulation-node stage vocabulary every pipeline draws on.
var (
	// stgSimulate advances one output iteration of the solver and
	// charges the full virtual compute cost.
	stgSimulate = stagegraph.Stage{
		Kind: stagegraph.Simulate, Phase: StageSimulation,
		Uses: []string{"solver"}, Yields: []string{"field"},
		Binding: bindNode,
	}
	// stgWriteCkpt encodes and durably stores one checkpoint
	// (the nnwrite stage of Fig. 4).
	stgWriteCkpt = stagegraph.Stage{
		Kind: stagegraph.WriteCheckpoint, Phase: StageWrite,
		Uses: []string{"field"}, Yields: []string{"checkpoint"},
		Binding: bindDisk,
	}
	// stgBarrier separates pipeline phases: sync + drop caches (or the
	// distributed equivalent), untimed like the paper's methodology.
	stgBarrier = stagegraph.Stage{
		Kind:    stagegraph.Barrier,
		Binding: bindDisk,
	}
	// stgReadCkpt reads a checkpoint back cold (the nnread stage).
	stgReadCkpt = stagegraph.Stage{
		Kind: stagegraph.ReadCheckpoint, Phase: StageRead,
		Uses: []string{"checkpoint"}, Yields: []string{"restored"},
		Binding: bindDisk,
	}
	// stgRecover recomputes a lost checkpoint's field from the initial
	// conditions (deterministic re-simulation).
	stgRecover = stagegraph.Stage{
		Kind: stagegraph.Recover, Phase: StageRecovery,
		Uses: []string{"config"}, Yields: []string{"restored"},
		Binding: bindNode,
	}
	// stgRenderRestored renders a field recovered from storage — the
	// post-processing visualization event (frame flush nested within).
	stgRenderRestored = stagegraph.Stage{
		Kind: stagegraph.Render, Phase: StageViz,
		Uses: []string{"restored"}, Yields: []string{"frame"},
		Binding: bindNode,
	}
	// stgRenderLive renders the live solver field — the in-situ
	// visualization event (cinema variants, compression, and the
	// frame/reduced-product flush nest within).
	stgRenderLive = stagegraph.Stage{
		Kind: stagegraph.Render, Phase: StageViz,
		Uses: []string{"field"}, Yields: []string{"frame"},
		Binding: bindNode,
	}
	// stgRenderVariants renders the extra cinema image-database views
	// of one event (untimed glue inside the visualization stage).
	stgRenderVariants = stagegraph.Stage{
		Kind:    stagegraph.Render,
		Uses:    []string{"field"},
		Binding: bindNode,
	}
	// stgCompress DEFLATE-compresses the reduced data product before
	// flushing (untimed glue inside the visualization stage).
	stgCompress = stagegraph.Stage{
		Kind: stagegraph.Encode,
		Uses: []string{"field"}, Yields: []string{"reduced"},
		Binding: bindNode,
	}
	// stgFrameFlush stores the rendered frame (and, in-situ, the
	// reduced data product) on the filesystem.
	stgFrameFlush = stagegraph.Stage{
		Kind:    stagegraph.FrameFlush,
		Uses:    []string{"frame"},
		Binding: bindDisk,
	}
)

// The link and staging-node stage vocabulary (in-transit and hybrid).
var (
	// stgEncodeHost renders and PNG-encodes the frame on the
	// simulation host; its virtual render cost is charged on the
	// staging node when the shipped data arrives (in-transit only).
	stgEncodeHost = stagegraph.Stage{
		Kind: stagegraph.Encode,
		Uses: []string{"field"}, Yields: []string{"frame"},
		Binding: bindNode,
	}
	// stgNetTransfer ships one event's payload over the link; the
	// simulation blocks only for the serialized transfer.
	stgNetTransfer = stagegraph.Stage{
		Kind: stagegraph.NetTransfer, Phase: StageNet,
		Uses: []string{"field"}, Yields: []string{"shipped"},
		Binding: bindLink,
	}
	// stgStageRender renders a delivered event on the staging node,
	// asynchronously with the next simulation iterations (executed by
	// engine callbacks, not inline — declared here for the graph).
	stgStageRender = stagegraph.Stage{
		Kind: stagegraph.Render,
		Uses: []string{"shipped"}, Yields: []string{"stagedframe"},
		Binding: bindStaging,
	}
	// stgStageFlush streams a staged frame to the staging disk (async).
	stgStageFlush = stagegraph.Stage{
		Kind:    stagegraph.FrameFlush,
		Uses:    []string{"stagedframe"},
		Binding: bindStagingDisk,
	}
	// stgStageCkpt persists a shipped checkpoint payload on the staging
	// disk — the hybrid pipeline's asynchronous offload target.
	stgStageCkpt = stagegraph.Stage{
		Kind:    stagegraph.WriteCheckpoint,
		Uses:    []string{"shipped"},
		Binding: bindStagingDisk,
	}
)
