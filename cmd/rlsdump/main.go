// Command rlsdump decodes the repo's binary persistence artifacts —
// session snapshots (.snap, written by rlsd and rlsim) and trace
// archives (written by rlsim -traceout) — into JSON or CSV for
// inspection and plotting. The artifact kind is auto-detected from the
// magic bytes.
//
// Examples:
//
//	rlsdump state/s-1.snap                  # snapshot -> JSON
//	rlsdump -format csv state/s-1.snap      # bin,load rows
//	rlsdump run.trace                       # trace -> JSON
//	rlsdump -format csv run.trace           # one row per record
package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	rls "repro"
	"repro/internal/persist"
)

func main() {
	format := flag.String("format", "json", "output format: json or csv")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"rlsdump decodes snapshot and trace artifacts to JSON or CSV.\n\n"+
				"Usage: rlsdump [-format json|csv] FILE\n\n"+
				"Flags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 || (*format != "json" && *format != "csv") {
		flag.Usage()
		os.Exit(2)
	}
	if err := dump(flag.Arg(0), *format, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rlsdump: %v\n", err)
		os.Exit(1)
	}
}

func dump(path, format string, w io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch {
	case bytes.HasPrefix(raw, []byte(persist.MagicSnapshot)):
		return dumpSnapshot(raw, format, w)
	case bytes.HasPrefix(raw, []byte(persist.MagicTrace)):
		return dumpTrace(raw, format, w)
	}
	return fmt.Errorf("%s: %w (neither a snapshot nor a trace archive)", path, persist.ErrBadMagic)
}

// snapshotDump is the JSON view of a decoded snapshot.
type snapshotDump struct {
	Kind     string           `json:"kind"`
	Engine   string           `json:"engine"`
	Bins     int              `json:"bins"`
	Balls    int              `json:"balls"`
	Strict   bool             `json:"strict,omitempty"`
	Topology string           `json:"topology"`
	Note     json.RawMessage  `json:"note,omitempty"`
	Stats    rls.SessionStats `json:"stats"`
	Loads    []int            `json:"loads"`
}

func dumpSnapshot(raw []byte, format string, w io.Writer) error {
	s, note, err := rls.ResumeSessionWithNote(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if format == "csv" {
		cw := csv.NewWriter(w)
		_ = cw.Write([]string{"bin", "load"})
		for bin, load := range s.Loads() {
			_ = cw.Write([]string{strconv.Itoa(bin), strconv.Itoa(load)})
		}
		cw.Flush()
		return cw.Error()
	}
	out := snapshotDump{
		Kind:     "snapshot",
		Engine:   s.Mode().String(),
		Bins:     s.N(),
		Balls:    s.M(),
		Strict:   s.Strict(),
		Topology: s.TopologyName(),
		Stats:    s.Stats(),
		Loads:    s.Loads(),
	}
	if json.Valid(note) {
		out.Note = note
	} else if len(note) > 0 {
		out.Note, _ = json.Marshal(string(note))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// traceDump is the JSON view of a trace archive.
type traceDump struct {
	Kind      string            `json:"kind"`
	Meta      rls.TraceMeta     `json:"meta"`
	Records   []traceRecordDump `json:"records"`
	Snapshots int               `json:"snapshots"`
}

type traceRecordDump struct {
	Kind        string  `json:"kind"`
	Bin         int     `json:"bin"`
	Time        float64 `json:"time"`
	Activations int64   `json:"activations"`
	Moves       int64   `json:"moves"`
	Balls       int     `json:"balls"`
	Disc        float64 `json:"disc"`
}

func dumpTrace(raw []byte, format string, w io.Writer) error {
	tr, err := rls.OpenTrace(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	var cw *csv.Writer
	if format == "csv" {
		cw = csv.NewWriter(w)
		_ = cw.Write([]string{"kind", "bin", "time", "activations", "moves", "balls", "disc"})
	}
	out := traceDump{Kind: "trace", Meta: tr.Meta(), Records: []traceRecordDump{}}
	for {
		item, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if item.Snapshot != nil {
			out.Snapshots++
			if cw != nil {
				// A marker row keeps the seek points visible in the CSV
				// stream without widening the schema.
				_ = cw.Write([]string{"snapshot", "", "", "", "", "", ""})
			}
			continue
		}
		r := item.Record
		if cw != nil {
			_ = cw.Write([]string{
				r.Kind,
				strconv.Itoa(r.Bin),
				strconv.FormatFloat(r.Time, 'g', -1, 64),
				strconv.FormatInt(r.Activations, 10),
				strconv.FormatInt(r.Moves, 10),
				strconv.Itoa(r.Balls),
				strconv.FormatFloat(r.Disc, 'g', -1, 64),
			})
			continue
		}
		out.Records = append(out.Records, traceRecordDump{
			Kind: r.Kind, Bin: r.Bin, Time: r.Time,
			Activations: r.Activations, Moves: r.Moves, Balls: r.Balls, Disc: r.Disc,
		})
	}
	if cw != nil {
		cw.Flush()
		return cw.Error()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
