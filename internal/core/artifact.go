// Package core is ByteCard's framework layer — the paper's primary
// contribution. It provides the Inference Engine abstraction
// (loadModel / validate / initContext / featurizeSQLQuery / featurizeAST /
// estimate), a model registry with the size checker, health detection and
// LRU retention the Model Validator enforces, and the ByteCard estimator
// that plugs the learned models (Bayesian networks, FactorJoin, RBX) into
// the warehouse optimizer behind the engine.CardEstimator interface, with
// graceful fallback to the traditional estimator whenever a model is
// missing, invalid, or disabled by the Model Monitor.
package core

import (
	"fmt"
	"time"
)

// ModelKind identifies a model family.
type ModelKind string

// Model kinds.
const (
	KindBN         ModelKind = "bn"
	KindFactorJoin ModelKind = "factorjoin"
	KindRBX        ModelKind = "rbx"
)

// Retired reports whether k names a model family the Inference Engine no
// longer serves: the learned cost model ("costmodel"), which stores written
// by earlier versions may still hold. The Model Loader skips such artifacts
// instead of failing every refresh on them.
func (k ModelKind) Retired() bool { return k == "costmodel" }

// Artifact is one serialized model as stored in (and loaded from) the
// model store: the unit the Model Loader ships between the ModelForge
// service and the Inference Engine.
type Artifact struct {
	// Name is the unique store key, e.g. "imdb/bn/title" or
	// "imdb/bn/title#2" for shard-specialized models.
	Name string
	// Kind selects the decoder.
	Kind ModelKind
	// Table scopes BN artifacts (and shard-specialized variants).
	Table string
	// Shard numbers shard-specialized models; -1 for unsharded.
	Shard int
	// Timestamp orders artifact versions; the loader only installs
	// artifacts newer than what the engine holds.
	Timestamp time.Time
	// Data is the gob-encoded model payload.
	Data []byte
}

// Validate checks artifact metadata.
func (a *Artifact) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("core: artifact without name")
	}
	switch a.Kind {
	case KindBN:
		if a.Table == "" {
			return fmt.Errorf("core: BN artifact %s without table", a.Name)
		}
	case KindFactorJoin, KindRBX:
	default:
		return fmt.Errorf("core: artifact %s has unknown kind %q", a.Name, a.Kind)
	}
	return nil
}
