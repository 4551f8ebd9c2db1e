package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cmpi/internal/sim"
)

// The v1 encoding is line-oriented text: a header line followed by one line
// per record. Timestamps are raw picosecond integers and every field is
// written in full, so a trace round-trips exactly and two traces are equal
// iff their files are byte-identical.
//
//	cmpi-trace v1 ranks=<n> cell=<bytes>
//	<t> <op> <rank> <peer> <tag> <ctx> <bytes> <path> <aux>

// magic is the v1 header prefix.
const magic = "cmpi-trace v1"

// maxRanks bounds the rank count Read accepts: Replay sizes its per-rank
// tables from the header, so a larger claim is refused, not allocated.
const maxRanks = 1 << 20

// Trace is a fully parsed trace: the header plus every record in dispatch
// order.
type Trace struct {
	// Ranks is the job size the trace was recorded from.
	Ranks int
	// Cell is the SHM ring cell payload size the job ran with; the replayer
	// needs it to reconstruct per-fragment SHM operation counts.
	Cell int
	// Records holds the records in recorded (dispatch) order.
	Records []Record
}

// appendRecord encodes r as one line.
func appendRecord(buf []byte, r Record) []byte {
	buf = strconv.AppendInt(buf, int64(r.T), 10)
	buf = append(buf, ' ')
	buf = append(buf, r.Op.String()...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(r.Rank), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(r.Peer), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(r.Tag), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(r.Ctx), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(r.Bytes), 10)
	buf = append(buf, ' ')
	buf = append(buf, r.Path.String()...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, r.Aux, 10)
	buf = append(buf, '\n')
	return buf
}

// Write encodes the trace to w in the v1 format.
func (tr *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s ranks=%d cell=%d\n", magic, tr.Ranks, tr.Cell)
	var buf []byte
	for _, r := range tr.Records {
		buf = appendRecord(buf[:0], r)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseRecord decodes one record line.
func parseRecord(line string, idx int) (Record, error) {
	fields := strings.Fields(line)
	if len(fields) != 9 {
		return Record{}, fmt.Errorf("trace: record %d: %d fields, want 9", idx, len(fields))
	}
	var r Record
	t, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("trace: record %d: bad timestamp %q", idx, fields[0])
	}
	r.T = sim.Time(t)
	op, ok := opByName[fields[1]]
	if !ok {
		return Record{}, fmt.Errorf("trace: record %d: unknown op %q", idx, fields[1])
	}
	r.Op = op
	ints := [5]*int{&r.Rank, &r.Peer, &r.Tag, &r.Ctx, &r.Bytes}
	for i, dst := range ints {
		v, err := strconv.Atoi(fields[2+i])
		if err != nil {
			return Record{}, fmt.Errorf("trace: record %d: bad field %q", idx, fields[2+i])
		}
		*dst = v
	}
	path, ok := pathByName[fields[7]]
	if !ok {
		return Record{}, fmt.Errorf("trace: record %d: unknown path %q", idx, fields[7])
	}
	r.Path = path
	aux, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("trace: record %d: bad aux %q", idx, fields[8])
	}
	r.Aux = aux
	return r, nil
}

// Read parses a v1 trace.
func Read(rd io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	hdr := sc.Text()
	if !strings.HasPrefix(hdr, magic+" ") {
		return nil, fmt.Errorf("trace: bad header %q (want %q)", hdr, magic)
	}
	tr := &Trace{}
	for _, kv := range strings.Fields(hdr[len(magic)+1:]) {
		key, val, ok := strings.Cut(kv, "=")
		n, err := strconv.Atoi(val)
		if !ok || err != nil {
			return nil, fmt.Errorf("trace: bad header field %q", kv)
		}
		switch key {
		case "ranks":
			tr.Ranks = n
		case "cell":
			tr.Cell = n
		default:
			// Unknown header fields are ignored for forward compatibility.
		}
	}
	if tr.Ranks <= 0 || tr.Cell <= 0 {
		return nil, fmt.Errorf("trace: header missing ranks/cell: %q", hdr)
	}
	if tr.Ranks > maxRanks {
		return nil, fmt.Errorf("trace: header claims %d ranks, more than %d", tr.Ranks, maxRanks)
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		r, err := parseRecord(line, len(tr.Records))
		if err != nil {
			return nil, err
		}
		tr.Records = append(tr.Records, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Recorder collects structured records from one traced world. Built over a
// writer, it streams the v1 encoding as records arrive and keeps none of
// them, so a long recording needs no final serialization pass and holds no
// memory per record; built over nil, it retains the records in memory
// (Trace). A Recorder is single-shot: one world, one Begin.
type Recorder struct {
	w     io.Writer
	buf   []byte
	tr    Trace
	began bool
	err   error
}

// NewRecorder returns a recorder, streaming to w unless it is nil.
func NewRecorder(w io.Writer) *Recorder { return &Recorder{w: w} }

// Begin records the trace header. The runtime calls it once at World.Run.
func (rec *Recorder) Begin(ranks, cell int) {
	if rec.began {
		rec.fail(fmt.Errorf("trace: Recorder reused across worlds; build one per recording"))
		return
	}
	rec.began = true
	rec.tr.Ranks, rec.tr.Cell = ranks, cell
	if rec.w != nil {
		_, err := fmt.Fprintf(rec.w, "%s ranks=%d cell=%d\n", magic, ranks, cell)
		rec.fail(err)
	}
}

// Add streams one record to the writer, or retains it when there is none.
func (rec *Recorder) Add(r Record) {
	if rec.w == nil {
		rec.tr.Records = append(rec.tr.Records, r)
		return
	}
	if rec.err == nil {
		rec.buf = appendRecord(rec.buf[:0], r)
		_, err := rec.w.Write(rec.buf)
		rec.fail(err)
	}
}

func (rec *Recorder) fail(err error) {
	if rec.err == nil && err != nil {
		rec.err = err
	}
}

// Err reports the first stream-write or reuse error.
func (rec *Recorder) Err() error { return rec.err }

// Trace returns the retained trace (valid after the recorded run finishes).
// A recorder that streams to a writer retains only the header: read the
// records back from what it wrote (Read).
func (rec *Recorder) Trace() *Trace { return &rec.tr }
