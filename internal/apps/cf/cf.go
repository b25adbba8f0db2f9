// Package cf implements the paper's running example: online collaborative
// filtering (Alg. 1), translated to the SDG of Fig. 1.
//
// Two state elements hold the model: the user-item rating matrix
// (partitioned by user) and the item co-occurrence matrix (partial,
// replicated, because its access pattern is random). addRating updates both
// with high throughput; getRec serves fresh recommendations with low
// latency through a global read over all coOcc replicas, merged by an
// application-defined merge TE.
package cf

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/state"
	"repro/internal/wire/flat"
)

// Payloads crossing TE boundaries (the "live variables" of §4.2 step 5).
type (
	// RatingMsg is the input of addRating.
	RatingMsg struct {
		User, Item, Rating int
	}
	// CoUpdateMsg carries the updated user row to the co-occurrence update
	// (live variables: item id + user row).
	CoUpdateMsg struct {
		Item int64
		Row  map[int64]float64
	}
	// RecReqMsg asks for recommendations for a user.
	RecReqMsg struct {
		User int
	}
	// UserVecMsg carries the user's rating row to the global multiply.
	UserVecMsg struct {
		User int
		Row  map[int64]float64
	}
	// PartialRec is one replica's partial recommendation vector.
	PartialRec = map[int64]float64
	// Recommendation is the merged result returned to the caller.
	Recommendation = map[int64]float64
)

// Flat codec tags of the cf payloads; DESIGN.md "Wire format" lists every
// application tag. PartialRec and Recommendation ride the codec's own
// map[int64]float64 tag.
const (
	tagRatingMsg uint64 = 1 + iota
	tagCoUpdateMsg
	tagRecReqMsg
	tagUserVecMsg
)

func (RatingMsg) FlatTag() uint64   { return tagRatingMsg }
func (CoUpdateMsg) FlatTag() uint64 { return tagCoUpdateMsg }
func (RecReqMsg) FlatTag() uint64   { return tagRecReqMsg }
func (UserVecMsg) FlatTag() uint64  { return tagUserVecMsg }

func (m RatingMsg) AppendFlat(e *flat.Encoder) error {
	e.Varint(int64(m.User))
	e.Varint(int64(m.Item))
	e.Varint(int64(m.Rating))
	return nil
}

func (m CoUpdateMsg) AppendFlat(e *flat.Encoder) error {
	e.Varint(m.Item)
	e.FloatMap(m.Row)
	return nil
}

func (m RecReqMsg) AppendFlat(e *flat.Encoder) error {
	e.Varint(int64(m.User))
	return nil
}

func (m UserVecMsg) AppendFlat(e *flat.Encoder) error {
	e.Varint(int64(m.User))
	e.FloatMap(m.Row)
	return nil
}

func init() {
	flat.RegisterPayload(tagRatingMsg, func(d *flat.Decoder) any {
		return RatingMsg{User: int(d.Varint()), Item: int(d.Varint()), Rating: int(d.Varint())}
	})
	flat.RegisterPayload(tagCoUpdateMsg, func(d *flat.Decoder) any {
		return CoUpdateMsg{Item: d.Varint(), Row: d.FloatMap()}
	})
	flat.RegisterPayload(tagRecReqMsg, func(d *flat.Decoder) any {
		return RecReqMsg{User: int(d.Varint())}
	})
	flat.RegisterPayload(tagUserVecMsg, func(d *flat.Decoder) any {
		return UserVecMsg{User: int(d.Varint()), Row: d.FloatMap()}
	})
}

// Graph builds the CF SDG of Fig. 1: five TEs over two SEs.
func Graph() *core.Graph {
	g := core.NewGraph("cf")
	userItem := g.AddSE("userItem", core.KindPartitioned, state.TypeMatrix, nil)
	coOcc := g.AddSE("coOcc", core.KindPartial, state.TypeMatrix, nil)

	updateUserItem := g.AddTE("updateUserItem", func(ctx core.Context, it core.Item) {
		msg := it.Value.(RatingMsg)
		ui := ctx.Store().(*state.Matrix)
		// userItem.setElement(user, item, rating)
		ui.Set(int64(msg.User), int64(msg.Item), float64(msg.Rating))
		// userRow = userItem.getRow(user); forwarded to the coOcc update.
		row := ui.RowVec(int64(msg.User))
		ctx.Emit(0, it.Key, CoUpdateMsg{Item: int64(msg.Item), Row: row})
	}, &core.Access{SE: userItem, Mode: core.AccessByKey}, true)

	updateCoOcc := g.AddTE("updateCoOcc", func(ctx core.Context, it core.Item) {
		msg := it.Value.(CoUpdateMsg)
		co := ctx.Store().(*state.Matrix)
		// for i in userRow: if rated, bump co-occurrence both ways.
		for i, rating := range msg.Row {
			if rating > 0 && i != msg.Item {
				co.Add(msg.Item, i, 1)
				co.Add(i, msg.Item, 1)
			}
		}
	}, &core.Access{SE: coOcc, Mode: core.AccessLocal}, false)

	getUserVec := g.AddTE("getUserVec", func(ctx core.Context, it core.Item) {
		msg := it.Value.(RecReqMsg)
		ui := ctx.Store().(*state.Matrix)
		row := ui.RowVec(int64(msg.User))
		ctx.EmitReq(0, it.Key, UserVecMsg{User: msg.User, Row: row})
	}, &core.Access{SE: userItem, Mode: core.AccessByKey}, true)

	getRecVec := g.AddTE("getRecVec", func(ctx core.Context, it core.Item) {
		msg := it.Value.(UserVecMsg)
		co := ctx.Store().(*state.Matrix)
		// @Partial userRec = @Global coOcc.multiply(userRow)
		ctx.EmitReq(0, 0, PartialRec(co.MulVec(msg.Row)))
	}, &core.Access{SE: coOcc, Mode: core.AccessGlobal}, false)

	merge := g.AddTE("merge", func(ctx core.Context, it core.Item) {
		coll := it.Value.(core.Collection)
		// merge(@Collection allUserRec): element-wise sum.
		rec := Recommendation{}
		for _, v := range coll {
			for i, x := range v.(PartialRec) {
				rec[i] += x
			}
		}
		ctx.Reply(rec)
	}, nil, false)

	g.Connect(updateUserItem, updateCoOcc, core.DispatchOneToAny)
	g.Connect(getUserVec, getRecVec, core.DispatchOneToAll)
	g.Connect(getRecVec, merge, core.DispatchAllToOne)
	return g
}

// CF is a deployed collaborative filtering application.
type CF struct {
	rt *runtime.Runtime
}

// Config sizes the deployment.
type Config struct {
	// UserPartitions splits the userItem matrix (default 1).
	UserPartitions int
	// CoOccReplicas creates partial coOcc instances (default 1).
	CoOccReplicas int
	// Runtime options (checkpointing etc.).
	Runtime runtime.Options
}

// New deploys the CF SDG.
func New(cfg Config) (*CF, error) {
	if cfg.UserPartitions <= 0 {
		cfg.UserPartitions = 1
	}
	if cfg.CoOccReplicas <= 0 {
		cfg.CoOccReplicas = 1
	}
	opts := cfg.Runtime
	if opts.Partitions == nil {
		opts.Partitions = map[string]int{}
	}
	opts.Partitions["userItem"] = cfg.UserPartitions
	opts.Partitions["coOcc"] = cfg.CoOccReplicas
	rt, err := runtime.Deploy(Graph(), opts)
	if err != nil {
		return nil, fmt.Errorf("cf: %w", err)
	}
	return &CF{rt: rt}, nil
}

// AddRating ingests one rating (fire-and-forget, the high-throughput path).
func (c *CF) AddRating(user, item, rating int) error {
	return c.rt.Inject("updateUserItem", uint64(user), RatingMsg{User: user, Item: item, Rating: rating})
}

// GetRec returns the merged recommendation vector for a user (the
// low-latency path; §2.1: "getRec must serve requests with low latency").
func (c *CF) GetRec(user int, timeout time.Duration) (Recommendation, error) {
	v, err := c.rt.Call("getUserVec", uint64(user), RecReqMsg{User: user}, timeout)
	if err != nil {
		return nil, err
	}
	return v.(Recommendation), nil
}

// Runtime exposes the underlying runtime for experiments.
func (c *CF) Runtime() *runtime.Runtime { return c.rt }

// Stop shuts the deployment down.
func (c *CF) Stop() { c.rt.Stop() }
