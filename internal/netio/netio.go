// Package netio serializes nets, technologies and optimization results to
// a stable JSON format used by the command-line tools. The format is
// self-describing and versioned so saved benchmarks remain loadable.
package netio

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"msrnet/internal/atomicfile"
	"msrnet/internal/buslib"
	"msrnet/internal/geom"
	"msrnet/internal/rctree"
	"msrnet/internal/topo"
	"msrnet/internal/validate"
)

// FormatVersion identifies the on-disk schema.
const FormatVersion = 1

// NetFile is the JSON representation of a routing topology plus its
// technology.
type NetFile struct {
	Version int        `json:"version"`
	Name    string     `json:"name,omitempty"`
	Tech    TechJSON   `json:"tech"`
	Nodes   []NodeJSON `json:"nodes"`
	Edges   []EdgeJSON `json:"edges"`
}

// TechJSON mirrors buslib.Tech.
type TechJSON struct {
	WireResPerUm float64           `json:"wire_res_per_um"`
	WireCapPerUm float64           `json:"wire_cap_per_um"`
	Repeaters    []buslib.Repeater `json:"repeaters,omitempty"`
	Drivers      []buslib.Driver   `json:"drivers,omitempty"`
	PrevStageRes float64           `json:"prev_stage_res,omitempty"`
	NextStageCap float64           `json:"next_stage_cap,omitempty"`
}

// NodeJSON mirrors topo.Node.
type NodeJSON struct {
	ID   int     `json:"id"`
	Kind string  `json:"kind"` // "terminal", "steiner", "insertion"
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	// Terminal-only fields.
	Name     string  `json:"name,omitempty"`
	IsSource bool    `json:"is_source,omitempty"`
	IsSink   bool    `json:"is_sink,omitempty"`
	AAT      float64 `json:"aat,omitempty"`
	Q        float64 `json:"q,omitempty"`
	Cin      float64 `json:"cin,omitempty"`
	Rout     float64 `json:"rout,omitempty"`
	DrvIntr  float64 `json:"driver_intrinsic,omitempty"`
}

// EdgeJSON mirrors topo.Edge.
type EdgeJSON struct {
	A      int     `json:"a"`
	B      int     `json:"b"`
	Length float64 `json:"length"`
}

// Encode converts a topology and technology to the file form.
func Encode(name string, tr *topo.Tree, tech buslib.Tech) NetFile {
	f := NetFile{
		Version: FormatVersion,
		Name:    name,
		Tech: TechJSON{
			WireResPerUm: tech.Wire.ResPerUm,
			WireCapPerUm: tech.Wire.CapPerUm,
			Repeaters:    tech.Repeaters,
			Drivers:      tech.Drivers,
			PrevStageRes: tech.PrevStageRes,
			NextStageCap: tech.NextStageCap,
		},
	}
	for i := 0; i < tr.NumNodes(); i++ {
		n := tr.Node(i)
		nj := NodeJSON{ID: n.ID, Kind: n.Kind.String(), X: n.Pt.X, Y: n.Pt.Y}
		if n.Kind == topo.Terminal {
			nj.Name = n.Term.Name
			nj.IsSource = n.Term.IsSource
			nj.IsSink = n.Term.IsSink
			nj.AAT = n.Term.AAT
			nj.Q = n.Term.Q
			nj.Cin = n.Term.Cin
			nj.Rout = n.Term.Rout
			nj.DrvIntr = n.Term.DriverIntrinsic
		}
		f.Nodes = append(f.Nodes, nj)
	}
	for i := 0; i < tr.NumEdges(); i++ {
		e := tr.Edge(i)
		f.Edges = append(f.Edges, EdgeJSON{A: e.A, B: e.B, Length: e.Length})
	}
	return f
}

// Decode rebuilds the topology and technology from the file form. The
// file is first run through Check with the default limits, so any
// returned error carries an msrnet-error/v1 taxonomy code (see
// internal/validate) and the tree construction below cannot panic on
// hostile input.
func Decode(f NetFile) (*topo.Tree, buslib.Tech, error) {
	return DecodeWithLimits(f, validate.Limits{})
}

// DecodeWithLimits is Decode under caller-chosen size limits (zero
// fields take the defaults).
func DecodeWithLimits(f NetFile, lim validate.Limits) (*topo.Tree, buslib.Tech, error) {
	if err := Check(f, lim); err != nil {
		return nil, buslib.Tech{}, err
	}
	tech := buslib.Tech{
		Wire:         buslib.Wire{ResPerUm: f.Tech.WireResPerUm, CapPerUm: f.Tech.WireCapPerUm},
		Repeaters:    f.Tech.Repeaters,
		Drivers:      f.Tech.Drivers,
		PrevStageRes: f.Tech.PrevStageRes,
		NextStageCap: f.Tech.NextStageCap,
	}
	tr := topo.New()
	for _, nj := range f.Nodes {
		pt := geom.Pt(nj.X, nj.Y)
		switch nj.Kind {
		case "terminal":
			tr.AddTerminal(pt, buslib.Terminal{
				Name: nj.Name, IsSource: nj.IsSource, IsSink: nj.IsSink,
				AAT: nj.AAT, Q: nj.Q, Cin: nj.Cin, Rout: nj.Rout,
				DriverIntrinsic: nj.DrvIntr,
			})
		case "steiner":
			tr.AddSteiner(pt)
		case "insertion":
			tr.AddInsertion(pt)
		}
	}
	for _, ej := range f.Edges {
		tr.AddEdge(ej.A, ej.B, ej.Length)
	}
	if err := tr.Validate(); err != nil {
		// Check above enforces every Validate invariant first; this is
		// the backstop should the two ever drift.
		return nil, tech, fmt.Errorf("netio: %w", err)
	}
	return tr, tech, nil
}

// Write streams the net file as indented JSON.
func Write(w io.Writer, f NetFile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Read parses a net file. Syntax errors carry the net/bad_json
// taxonomy code.
func Read(r io.Reader) (NetFile, error) {
	var f NetFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return f, fmt.Errorf("netio: %w: %w",
			validate.E(validate.CodeBadJSON, "", "net file is not valid JSON"), err)
	}
	return f, nil
}

// Save atomically writes the net to a file path.
func Save(path, name string, tr *topo.Tree, tech buslib.Tech) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		return Write(w, Encode(name, tr, tech))
	})
}

// Load reads a net from a file path.
func Load(path string) (*topo.Tree, buslib.Tech, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, buslib.Tech{}, err
	}
	defer fh.Close()
	f, err := Read(fh)
	if err != nil {
		return nil, buslib.Tech{}, err
	}
	return Decode(f)
}

// AssignmentJSON serializes an optimization outcome for one net.
type AssignmentJSON struct {
	Version   int               `json:"version"`
	Cost      float64           `json:"cost"`
	ARD       float64           `json:"ard"`
	Repeaters []PlacedJSON      `json:"repeaters,omitempty"`
	Drivers   map[string]string `json:"drivers,omitempty"` // node id -> driver name
	Widths    map[string]string `json:"widths,omitempty"`  // edge id -> width
}

// PlacedJSON mirrors rctree.Placed.
type PlacedJSON struct {
	Node    int    `json:"node"`
	Name    string `json:"repeater"`
	ASideUp bool   `json:"a_side_up"`
}

// EncodeAssignment summarizes a concrete assignment. The output is
// deterministic: repeaters are sorted by node id (map iteration order
// must not leak into saved files or cached daemon results), and the
// driver/width maps marshal with sorted keys as encoding/json always
// does.
func EncodeAssignment(cost, ard float64, asg rctree.Assignment) AssignmentJSON {
	out := AssignmentJSON{Version: FormatVersion, Cost: cost, ARD: ard}
	for node, pl := range asg.Repeaters {
		out.Repeaters = append(out.Repeaters, PlacedJSON{
			Node: node, Name: pl.Rep.Name, ASideUp: pl.ASideUp,
		})
	}
	sort.Slice(out.Repeaters, func(i, j int) bool {
		return out.Repeaters[i].Node < out.Repeaters[j].Node
	})
	if len(asg.Drivers) > 0 {
		out.Drivers = map[string]string{}
		for node, d := range asg.Drivers {
			out.Drivers[fmt.Sprint(node)] = d.Name
		}
	}
	if len(asg.Widths) > 0 {
		out.Widths = map[string]string{}
		for eid, w := range asg.Widths {
			out.Widths[fmt.Sprint(eid)] = fmt.Sprint(w)
		}
	}
	return out
}
