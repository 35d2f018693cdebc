// Package bench holds the end-to-end half of the serving-stack benchmark:
// input generation, the in-process pcrouter → pcserved stack, the
// closed-loop client, reference verification and the report.
//
// It reaches the program only through serving surfaces: server.New and
// Handler, router.New and Handler, wal.Open, the JSON wire format, and the
// data/pcgen/workload generators (plus core.DecodeSet and sat.New, which is
// how pcserved itself boots a spec). The traced run's direct calls into
// core, cells and summary live in the sibling trace package, so a change to
// those internals can break at most the traced run.
package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"pcbound/internal/core"
	"pcbound/internal/data"
	"pcbound/internal/domain"
	"pcbound/internal/pcgen"
	"pcbound/internal/server"
	"pcbound/internal/wal"
	"pcbound/internal/workload"
)

// Workload names.
const (
	ColdSolve     = "cold-solve"
	PartitionRead = "partition-read"
	MutateMix     = "mutate-mix"
)

// Names lists the workloads in the order the steadiness mode runs them.
var Names = []string{ColdSolve, PartitionRead, MutateMix}

// Data and pool seeds are constants: the twin rows, the constraint sets, the
// region pools and the warm-up ops are the same for every run, and --seed
// draws the op stream over them. Seed-to-seed differences are then
// differences of traffic, not of the database being queried.
const (
	dataSeed = 20200614
	poolSeed = 7
	warmSeed = 11
)

// Kind is the endpoint an op calls.
type Kind uint8

// Op kinds.
const (
	Bound Kind = iota
	Batch
	Add
	Replace
	Remove
	numKinds
)

var kindNames = [numKinds]string{"bound", "batch", "add", "replace", "remove"}
var kindPaths = [numKinds]string{"/v1/bound", "/v1/batch", "/v1/store/add", "/v1/store/replace", "/v1/store/remove"}

func (k Kind) String() string { return kindNames[k] }

// Path is the endpoint's URL path.
func (k Kind) Path() string { return kindPaths[k] }

// Read reports whether the op is a query.
func (k Kind) Read() bool { return k == Bound || k == Batch }

// Op is one request of a stream. It holds only what the timed loop needs:
// request bodies are plain bytes, so the stream adds next to nothing to the
// pointers the collector scans while the program runs. Decode recovers the
// request's content after the clock stops.
type Op struct {
	Kind Kind
	// Pin marks a read pinned to the epoch the last mutation returned.
	Pin bool
	// Body is the request body. A pinned read's body gets the epoch the
	// preceding mutation returned spliced in at run time, and a Remove's
	// body names the id the oldest outstanding Add returned, so both are
	// built by the client.
	Body []byte
}

// Request is an op's body decoded back into wire form.
type Request struct {
	// Queries are a read's queries; Tier marks one opting into the summary
	// tier (precision auto) with budget MaxWidth.
	Queries  []core.QueryJSON
	Tier     bool
	MaxWidth float64
	// PC is an Add's or Replace's constraint; ID is a Replace's target.
	PC core.PCJSON
	ID uint64
}

// Decode parses the op's body.
func (op *Op) Decode() (Request, error) {
	var r Request
	var prec string
	var mw *server.Num
	var err error
	switch op.Kind {
	case Bound:
		var b server.BoundRequest
		err = json.Unmarshal(op.Body, &b)
		r.Queries, prec, mw = []core.QueryJSON{b.Query}, b.Precision, b.MaxWidth
	case Batch:
		var b server.BatchRequest
		err = json.Unmarshal(op.Body, &b)
		r.Queries, prec, mw = b.Queries, b.Precision, b.MaxWidth
	case Add:
		var b server.AddRequest
		if err = json.Unmarshal(op.Body, &b); err == nil && len(b.Constraints) == 1 {
			r.PC = b.Constraints[0]
		}
	case Replace:
		var b server.ReplaceRequest
		err = json.Unmarshal(op.Body, &b)
		r.PC, r.ID = b.Constraint, b.ID
	}
	if mw != nil {
		r.MaxWidth = float64(*mw)
	}
	r.Tier = prec == "auto"
	return r, err
}

// Inputs are everything a run feeds the program, generated before set-up
// starts.
type Inputs struct {
	// Spec is the boot constraint set in the spec-file wire format (for a
	// durable workload, the state its template starts from).
	Spec []byte
	// Template is the prepared WAL directory a durable workload's every
	// boot recovers a fresh copy of ("" for in-memory workloads).
	Template string
	// Warm are the warm-up ops every boot replays before the timed phase.
	Warm []Op
	// Ops is the timed stream (a prefix of the seed's infinite stream).
	Ops []Op
}

// Durable reports whether the workload boots from a WAL directory.
func (in *Inputs) Durable() bool { return in.Template != "" }

// Generate builds a workload's inputs: the twin data and constraint set,
// the WAL template for durable workloads (under workDir), the warm-up ops,
// and the first n ops of the stream drawn from seed. The same arguments
// always produce the same inputs, and a longer n extends the stream without
// changing its prefix.
func Generate(name string, seed int64, n int, workDir string) (*Inputs, error) {
	switch name {
	case ColdSolve:
		return coldSolve(seed, n)
	case PartitionRead:
		return partitionRead(seed, n)
	case MutateMix:
		return mutateMix(seed, n, workDir)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Names)
}

var aggs = []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}

func encodeSpec(set *core.Store) ([]byte, *domain.Schema, error) {
	raw, err := json.Marshal(set.Snapshot().Spec())
	if err != nil {
		return nil, nil, fmt.Errorf("encoding spec: %w", err)
	}
	return raw, set.Schema(), nil
}

func queryJSON(schema *domain.Schema, agg, attr string, gen *workload.Gen) core.QueryJSON {
	a, _ := core.ParseAgg(agg)
	return core.QueryToJSON(schema, core.Query{Agg: a, Attr: attr, Where: gen.Where()})
}

func whereKey(q core.QueryJSON) string {
	raw, _ := json.Marshal(q.Where) // map keys marshal sorted
	return string(raw)
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs of plain fields always marshal
	}
	return raw
}

func readOp(kind Kind, qs []core.QueryJSON, pin bool, maxWidth float64) Op {
	op := Op{Kind: kind, Pin: pin}
	var mw *server.Num
	prec := ""
	if maxWidth > 0 {
		w := server.Num(maxWidth)
		mw, prec = &w, "auto"
	}
	if kind == Bound {
		op.Body = mustJSON(server.BoundRequest{Query: qs[0], Precision: prec, MaxWidth: mw})
	} else {
		op.Body = mustJSON(server.BatchRequest{Queries: qs, Precision: prec, MaxWidth: mw})
	}
	return op
}

// cold-solve: the Intel twin under a Rand-PC grid plus random overlapping
// boxes. Exact windows couple the cells into a MILP, and every query's
// region is new, so the decomposition cache misses by construction.
const (
	coldRows      = 20000
	coldGrid      = 289
	coldOverlap   = 15
	coldBatchSize = 4
	coldWarm      = 16
)

func coldSolve(seed int64, n int) (*Inputs, error) {
	t := data.Intel(coldRows, dataSeed)
	_, missing := data.RemoveRandomFraction(t, 0.3, dataSeed+1)
	set, err := pcgen.RandPC(missing, []string{"device", "time"}, coldGrid, coldOverlap, rand.New(rand.NewSource(dataSeed+2)))
	if err != nil {
		return nil, err
	}
	spec, schema, err := encodeSpec(set)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	stream := func(seed int64, n int) []Op {
		gen := workload.New(schema, []string{"device", "time"}, "light", seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		fresh := func() core.QueryJSON {
			for {
				q := queryJSON(schema, aggs[rng.Intn(len(aggs))], "light", gen)
				if k := whereKey(q); !seen[k] {
					seen[k] = true
					return q
				}
			}
		}
		ops := make([]Op, n)
		for i := range ops {
			if i%8 == 7 {
				qs := make([]core.QueryJSON, coldBatchSize)
				for j := range qs {
					qs[j] = fresh()
				}
				ops[i] = readOp(Batch, qs, false, 0)
				continue
			}
			ops[i] = readOp(Bound, []core.QueryJSON{fresh()}, false, 0)
		}
		return ops
	}
	warm := stream(warmSeed, coldWarm)
	return &Inputs{Spec: spec, Warm: warm, Ops: stream(seed, n)}, nil
}

// partition-read: the Airbnb twin under a Corr-PC partition of 45×45
// buckets. The store is disjoint, so exact reads take the greedy fast path.
// A third of the single reads and half of the batches opt into the summary
// tier with a fixed width budget; the tier answers most of them.
const (
	airbnbRows       = 20000
	partitionBuckets = 2025
	partitionPool    = 1024
	// partitionZipfV flattens the zipf head (P(k) ∝ (v+k)^-s): the hottest
	// region takes ~5% of draws instead of ~20%, so no single region's cost
	// decides a latency median.
	partitionZipfV     = 5
	partitionBatchSize = 4
	partitionWarm      = 16
	zipfS              = 1.1
)

// partitionBudget is the tier-opted reads' max_width per aggregate, set so
// the summary tier answers most of them and the wider ones escalate.
var partitionBudget = map[string]float64{
	"COUNT": 40, "SUM": 12000, "AVG": 2000, "MIN": 2000, "MAX": 5000,
}

// regionPool draws n distinct query regions from a fixed seed.
func regionPool(schema *domain.Schema, attrs []string, aggAttr string, n int) []core.QueryJSON {
	gen := workload.New(schema, attrs, aggAttr, poolSeed)
	seen := map[string]bool{}
	pool := make([]core.QueryJSON, 0, n)
	for len(pool) < n {
		q := queryJSON(schema, "COUNT", aggAttr, gen)
		if k := whereKey(q); !seen[k] {
			seen[k] = true
			pool = append(pool, q)
		}
	}
	return pool
}

func withAgg(q core.QueryJSON, agg, attr string) core.QueryJSON {
	q.Agg = agg
	q.Attr = ""
	if agg != "COUNT" {
		q.Attr = attr
	}
	return q
}

func partitionRead(seed int64, n int) (*Inputs, error) {
	t := data.Airbnb(airbnbRows, dataSeed)
	_, missing := data.RemoveRandomFraction(t, 0.3, dataSeed+1)
	set, err := pcgen.CorrPC(missing, []string{"latitude", "longitude"}, partitionBuckets)
	if err != nil {
		return nil, err
	}
	spec, schema, err := encodeSpec(set)
	if err != nil {
		return nil, err
	}
	pool := regionPool(schema, []string{"latitude", "longitude"}, "price", partitionPool)
	stream := func(seed int64, n int) []Op {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, zipfS, partitionZipfV, uint64(len(pool)-1))
		draw := func() core.QueryJSON {
			return withAgg(pool[zipf.Uint64()], aggs[rng.Intn(len(aggs))], "price")
		}
		ops := make([]Op, n)
		for i := range ops {
			if i%8 == 7 {
				qs := make([]core.QueryJSON, partitionBatchSize)
				for j := range qs {
					qs[j] = draw()
				}
				width := 0.0
				if (i/8)%2 == 1 {
					width = partitionBudget["SUM"]
					for j := range qs {
						qs[j] = withAgg(qs[j], "SUM", "price")
					}
				}
				ops[i] = readOp(Batch, qs, false, width)
				continue
			}
			q := draw()
			width := 0.0
			if rng.Intn(3) == 0 {
				width = partitionBudget[q.Agg]
			}
			ops[i] = readOp(Bound, []core.QueryJSON{q}, false, width)
		}
		return ops
	}
	return &Inputs{Spec: spec, Warm: stream(warmSeed, partitionWarm), Ops: stream(seed, n)}, nil
}

// mutate-mix: the Border twin under Overlapping-PC, booted from a WAL
// directory. Each step mutates one constraint and then reads.
const (
	borderRows      = 30000
	mutateBuckets   = 256
	mutatePool      = 128
	templateRecords = 512
	mutateWarmSteps = 16
	addEvery        = 16 // steps between an Add and the next
	removeAfter     = 8  // steps an added constraint lives
	// WAL settings are pcserved's defaults.
	WALWindow       = time.Millisecond
	CheckpointEvery = 1024
)

// mutateBudget is the tier-opted reads' max_width per aggregate.
var mutateBudget = map[string]float64{
	"COUNT": 400, "SUM": 4e6, "AVG": 2e4, "MIN": 2e4, "MAX": 2e5,
}

// mutGen draws mutate-mix steps. base holds the template's constraints by
// position, with their true counts; ids their stable ids.
type mutGen struct {
	base  []core.PCJSON
	truth []int
	ids   []uint64
	pool  []core.QueryJSON
	step  int
	added int // step of the outstanding Add, or -1
}

// refreshed returns constraint i with a fresh frequency window around its
// true count: the windows always hold on the twin, so the store stays
// satisfiable however the stream goes.
func (g *mutGen) refreshed(i int, rng *rand.Rand) core.PCJSON {
	pc := g.base[i]
	c, d := g.truth[i], rng.Intn(4)
	pc.KLo, pc.KHi = max(0, c-d), c+d
	return pc
}

func (g *mutGen) steps(rng *rand.Rand, n int, adds bool) []Op {
	pz := rand.NewZipf(rng, zipfS, 1, uint64(len(g.base)-1))
	rz := rand.NewZipf(rng, zipfS, 1, uint64(len(g.pool)-1))
	read := func(pin bool) Op {
		q := withAgg(g.pool[rz.Uint64()], aggs[rng.Intn(len(aggs))], "value")
		width := 0.0
		if !pin && rng.Intn(4) == 0 {
			width = mutateBudget[q.Agg]
		}
		return readOp(Bound, []core.QueryJSON{q}, pin, width)
	}
	var ops []Op
	for len(ops) < n {
		s := g.step
		g.step++
		switch {
		case adds && g.added >= 0 && s-g.added >= removeAfter:
			g.added = -1
			ops = append(ops, Op{Kind: Remove})
		case adds && g.added < 0 && s%addEvery == 0:
			g.added = s
			pc := g.refreshed(int(pz.Uint64()), rng)
			pc.KLo = 0
			pc.Name = fmt.Sprintf("extra-%d", s)
			ops = append(ops, Op{Kind: Add, Body: mustJSON(server.AddRequest{Constraints: []core.PCJSON{pc}})})
		default:
			i := int(pz.Uint64())
			pc := g.refreshed(i, rng)
			ops = append(ops, Op{Kind: Replace, Body: mustJSON(server.ReplaceRequest{ID: g.ids[i], Constraint: pc})})
		}
		ops = append(ops, read(false), read(true), read(false))
	}
	return ops[:n]
}

func mutateMix(seed int64, n int, workDir string) (*Inputs, error) {
	t := data.Border(borderRows, dataSeed)
	_, missing := data.RemoveRandomFraction(t, 0.3, dataSeed+1)
	set, err := pcgen.Overlapping(missing, []string{"port", "date"}, mutateBuckets)
	if err != nil {
		return nil, err
	}
	spec, schema, err := encodeSpec(set)
	if err != nil {
		return nil, err
	}
	snap := set.Snapshot()
	g := &mutGen{added: -1}
	for i, pc := range snap.PCs() {
		g.base = append(g.base, core.EncodePC(schema, pc))
		g.truth = append(g.truth, pc.KHi)
		g.ids = append(g.ids, uint64(snap.IDs()[i]))
	}
	g.pool = regionPool(schema, []string{"port", "date"}, "value", mutatePool)

	// The template: the boot state as a checkpoint plus a log tail of
	// refreshes that every boot replays.
	tmpl := filepath.Join(workDir, "template")
	if err := os.RemoveAll(tmpl); err != nil {
		return nil, err
	}
	dur, err := wal.Open(wal.Options{Dir: tmpl, Mode: wal.SyncNone, Boot: set})
	if err != nil {
		return nil, fmt.Errorf("creating WAL template: %w", err)
	}
	trng := rand.New(rand.NewSource(dataSeed + 3))
	for k := 0; k < templateRecords; k++ {
		i := trng.Intn(len(g.base))
		pc, err := core.PCFromJSON(schema, g.refreshed(i, trng))
		if err == nil {
			err = set.Replace(core.PCID(g.ids[i]), pc)
		}
		if err != nil {
			_ = dur.Close()
			return nil, fmt.Errorf("filling WAL template: %w", err)
		}
	}
	if err := dur.WaitDurable(set.Epoch()); err != nil {
		_ = dur.Close()
		return nil, fmt.Errorf("filling WAL template: %w", err)
	}
	if err := dur.Close(); err != nil {
		return nil, fmt.Errorf("closing WAL template: %w", err)
	}

	warm := g.steps(rand.New(rand.NewSource(warmSeed)), 4*mutateWarmSteps, false)
	ops := g.steps(rand.New(rand.NewSource(seed)), n, true)
	return &Inputs{Spec: spec, Template: tmpl, Warm: warm, Ops: ops}, nil
}

// CopyDir copies a flat directory (a WAL template) to dst, which must not
// exist. Copying is input preparation and stays outside every timer.
func CopyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}
