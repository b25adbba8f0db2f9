// Package logreg implements batch logistic regression (§6.2) on SDGs. The
// model weights live in a partial Vector SE: each training TE instance
// refines its local replica with SGD over the batches it receives
// (one-to-any dispatch), and a synchronisation flow — global read, merge
// average, broadcast write-back — reconciles the replicas between epochs.
// This is the "management of partial state in the LR application" whose
// scalability Fig. 9 measures.
package logreg

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/state"
	"repro/internal/wire/flat"
	"repro/internal/workload"
)

// Payloads.
type (
	// BatchMsg carries a slice of training points.
	BatchMsg struct {
		X [][]float64
		Y []float64
	}
	// SyncMsg triggers a model synchronisation round.
	SyncMsg struct{}
	// WeightsMsg carries one replica's weights (or the merged average).
	WeightsMsg struct {
		W []float64
	}
)

// Flat codec tags of the logreg payloads; DESIGN.md "Wire format" lists
// every application tag.
const (
	tagBatchMsg uint64 = 8 + iota
	tagSyncMsg
	tagWeightsMsg
)

func (BatchMsg) FlatTag() uint64   { return tagBatchMsg }
func (SyncMsg) FlatTag() uint64    { return tagSyncMsg }
func (WeightsMsg) FlatTag() uint64 { return tagWeightsMsg }

func (m BatchMsg) AppendFlat(e *flat.Encoder) error {
	e.NilableCount(len(m.X), m.X == nil)
	for _, x := range m.X {
		e.Float64s(x)
	}
	e.Float64s(m.Y)
	return nil
}

func (SyncMsg) AppendFlat(*flat.Encoder) error { return nil }

func (m WeightsMsg) AppendFlat(e *flat.Encoder) error {
	e.Float64s(m.W)
	return nil
}

func init() {
	flat.RegisterPayload(tagBatchMsg, func(d *flat.Decoder) any {
		var m BatchMsg
		if n, ok := d.NilableCount(1); ok {
			m.X = make([][]float64, n)
			for i := range m.X {
				m.X[i] = d.Float64s()
			}
		}
		m.Y = d.Float64s()
		return m
	})
	flat.RegisterPayload(tagSyncMsg, func(*flat.Decoder) any { return SyncMsg{} })
	flat.RegisterPayload(tagWeightsMsg, func(d *flat.Decoder) any {
		return WeightsMsg{W: d.Float64s()}
	})
}

// Graph builds the LR SDG for a given dimensionality and learning rate.
func Graph(dim int, lr float64) *core.Graph {
	g := core.NewGraph("logreg")
	weights := g.AddSE("weights", core.KindPartial, state.TypeVector, func() state.Store {
		return state.NewVector(dim)
	})

	feed := g.AddTE("feed", func(ctx core.Context, it core.Item) {
		ctx.Emit(0, it.Key, it.Value)
	}, nil, true)

	train := g.AddTE("train", func(ctx core.Context, it core.Item) {
		msg := it.Value.(BatchMsg)
		w := ctx.Store().(*state.Vector)
		snap := w.Snapshot()
		grad := make([]float64, len(snap))
		for i, x := range msg.X {
			dot := 0.0
			for j := range snap {
				dot += snap[j] * x[j]
			}
			y := msg.Y[i]
			gr := (workload.Sigmoid(y*dot) - 1) * y
			for j := range grad {
				grad[j] += gr * x[j]
			}
		}
		w.AddScaled(grad, -lr/float64(len(msg.X)))
	}, &core.Access{SE: weights, Mode: core.AccessLocal}, false)

	syncTE := g.AddTE("sync", func(ctx core.Context, it core.Item) {
		ctx.EmitReq(0, 0, it.Value)
	}, nil, true)

	readW := g.AddTE("readWeights", func(ctx core.Context, it core.Item) {
		w := ctx.Store().(*state.Vector)
		ctx.EmitReq(0, 0, WeightsMsg{W: w.Snapshot()})
	}, &core.Access{SE: weights, Mode: core.AccessGlobal}, false)

	avg := g.AddTE("average", func(ctx core.Context, it core.Item) {
		coll := it.Value.(core.Collection)
		var sum []float64
		for _, v := range coll {
			w := v.(WeightsMsg).W
			if sum == nil {
				sum = make([]float64, len(w))
			}
			for i := range w {
				sum[i] += w[i]
			}
		}
		for i := range sum {
			sum[i] /= float64(len(coll))
		}
		ctx.EmitReq(0, 0, WeightsMsg{W: sum})
		ctx.Reply(WeightsMsg{W: sum})
	}, nil, false)

	setW := g.AddTE("setWeights", func(ctx core.Context, it core.Item) {
		msg := it.Value.(WeightsMsg)
		w := ctx.Store().(*state.Vector)
		_ = w.Resize(len(msg.W))
		for i, x := range msg.W {
			w.Set(i, x)
		}
	}, &core.Access{SE: weights, Mode: core.AccessLocal}, false)

	g.Connect(feed, train, core.DispatchOneToAny)
	g.Connect(syncTE, readW, core.DispatchOneToAll)
	g.Connect(readW, avg, core.DispatchAllToOne)
	g.Connect(avg, setW, core.DispatchOneToAll)
	return g
}

// LR is a deployed logistic regression trainer.
type LR struct {
	rt  *runtime.Runtime
	dim int
}

// Config sizes the deployment.
type Config struct {
	Dim          int     // feature dimensionality
	LearningRate float64 // SGD step (default 0.1)
	Workers      int     // partial weight replicas / training instances
	Runtime      runtime.Options
}

// New deploys the LR SDG.
func New(cfg Config) (*LR, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("logreg: dimension must be positive")
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	opts := cfg.Runtime
	if opts.Partitions == nil {
		opts.Partitions = map[string]int{}
	}
	opts.Partitions["weights"] = cfg.Workers
	rt, err := runtime.Deploy(Graph(cfg.Dim, cfg.LearningRate), opts)
	if err != nil {
		return nil, fmt.Errorf("logreg: %w", err)
	}
	return &LR{rt: rt, dim: cfg.Dim}, nil
}

// Train ingests one batch of points (fire-and-forget).
func (l *LR) Train(points []workload.Point) error {
	msg := BatchMsg{X: make([][]float64, len(points)), Y: make([]float64, len(points))}
	for i, p := range points {
		msg.X[i] = p.X
		msg.Y[i] = p.Y
	}
	return l.rt.Inject("feed", 0, msg)
}

// Sync reconciles the partial weight replicas (global read, average,
// broadcast write-back) and returns the averaged model.
func (l *LR) Sync(timeout time.Duration) ([]float64, error) {
	v, err := l.rt.Call("sync", 0, SyncMsg{}, timeout)
	if err != nil {
		return nil, err
	}
	return v.(WeightsMsg).W, nil
}

// Accuracy scores the merged model on a labelled sample.
func (l *LR) Accuracy(points []workload.Point, timeout time.Duration) (float64, error) {
	w, err := l.Sync(timeout)
	if err != nil {
		return 0, err
	}
	correct := 0
	for _, p := range points {
		dot := 0.0
		for j := range w {
			dot += w[j] * p.X[j]
		}
		if (dot >= 0 && p.Y > 0) || (dot < 0 && p.Y < 0) {
			correct++
		}
	}
	return float64(correct) / float64(len(points)), nil
}

// Runtime exposes the underlying runtime for experiments.
func (l *LR) Runtime() *runtime.Runtime { return l.rt }

// Stop shuts the deployment down.
func (l *LR) Stop() { l.rt.Stop() }
