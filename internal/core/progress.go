package core

import "repro/internal/kb"

// Stage names one phase of a pipeline epoch (or of training) for progress
// reporting. The stages of an ingest epoch fire in order, once per
// iteration: StageMatch, StageBuild, StageCluster, StageFuse, StageDetect,
// and then StageWriteBack once per epoch (when write-back is enabled). An
// iteration that reaches the mapping fixpoint (see Engine.Ingest) fires
// only StageMatch and ends the epoch's iterations.
type Stage string

const (
	// StageClassify is table-to-class matching over a corpus.
	StageClassify Stage = "classify"
	// StageMatch is per-table attribute-to-property schema matching.
	StageMatch Stage = "match"
	// StageBuild is row building (similarity preparation, blocking, PHI).
	StageBuild Stage = "build"
	// StageCluster is row clustering (greedy pass plus KLj refinement).
	StageCluster Stage = "cluster"
	// StageFuse is entity creation (fusion) over the clusters.
	StageFuse Stage = "fuse"
	// StageDetect is new detection over the created entities.
	StageDetect Stage = "detect"
	// StageWriteBack is the KB write-back of entities detected as new.
	StageWriteBack Stage = "writeback"
	// StageTrain covers the model-learning phases of Train; the Event's
	// Detail field names the model being learned.
	StageTrain Stage = "train"
)

// Event is one progress notification. The engine emits an Event at the
// start of every stage; a callback therefore always describes work that is
// about to run, and the previous stage is complete when the next event
// arrives. Events fire on the goroutine running the pipeline — callbacks
// must be fast and must not call back into the engine.
type Event struct {
	// Class is the pipeline's class.
	Class kb.ClassID
	// Epoch is the ingest epoch the stage runs in (0 during Train and
	// ClassifyTables, which run outside any epoch).
	Epoch int
	// Iteration is the 1-based pipeline iteration within the epoch (0 for
	// stages that run once per epoch, like StageWriteBack).
	Iteration int
	// Stage identifies the phase that is starting.
	Stage Stage
	// Count is the number of units entering the stage: tables for
	// StageClassify/StageMatch/StageBuild, rows for StageCluster, clusters
	// for StageFuse, entities for StageDetect, and candidate entities for
	// StageWriteBack.
	Count int
	// Detail optionally refines the stage (the model name during
	// StageTrain).
	Detail string
}

// emit invokes the configured progress callback, if any.
func (cfg *Config) emit(ev Event) {
	if cfg.Progress != nil {
		ev.Class = cfg.Class
		cfg.Progress(ev)
	}
}
