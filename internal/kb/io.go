package kb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dtype"
)

// jsonValue is the serialized form of a typed value.
type jsonValue struct {
	Kind  string  `json:"kind"`
	Raw   string  `json:"raw,omitempty"`
	Str   string  `json:"str,omitempty"`
	Num   float64 `json:"num,omitempty"`
	Year  int     `json:"year,omitempty"`
	Month int     `json:"month,omitempty"`
	Day   int     `json:"day,omitempty"`
	Gran  string  `json:"gran,omitempty"`
}

// jsonInstance is the serialized form of one instance (one JSON object per
// line, in the style of DBpedia entity dumps).
type jsonInstance struct {
	Class      string               `json:"class"`
	Labels     []string             `json:"labels"`
	Abstract   string               `json:"abstract,omitempty"`
	Popularity float64              `json:"popularity,omitempty"`
	Facts      map[string]jsonValue `json:"facts"`
	// Provenance and epoch survive serialization so a dumped KB keeps the
	// audit trail of which instances the ingestion engine wrote back.
	Provenance  string `json:"provenance,omitempty"`
	IngestEpoch int    `json:"ingestEpoch,omitempty"`
}

var kindByName = map[string]dtype.Kind{
	"text":              dtype.Text,
	"nominalString":     dtype.NominalString,
	"instanceReference": dtype.InstanceReference,
	"date":              dtype.Date,
	"quantity":          dtype.Quantity,
	"nominalInteger":    dtype.NominalInteger,
}

func toJSONValue(v dtype.Value) jsonValue {
	jv := jsonValue{
		Kind: v.Kind.String(), Raw: v.Raw, Str: v.Str, Num: v.Num,
		Year: v.Year, Month: v.Month, Day: v.Day,
	}
	if v.Kind == dtype.Date {
		if v.Gran == dtype.GranDay {
			jv.Gran = "day"
		} else {
			jv.Gran = "year"
		}
	}
	return jv
}

func fromJSONValue(jv jsonValue) (dtype.Value, error) {
	kind, ok := kindByName[jv.Kind]
	if !ok {
		return dtype.Value{}, fmt.Errorf("kb: unknown value kind %q", jv.Kind)
	}
	v := dtype.Value{
		Kind: kind, Raw: jv.Raw, Str: jv.Str, Num: jv.Num,
		Year: jv.Year, Month: jv.Month, Day: jv.Day,
	}
	if kind == dtype.Date && jv.Gran == "day" {
		v.Gran = dtype.GranDay
	}
	return v, nil
}

// WriteInstances serializes all instances as newline-delimited JSON.
// Classes and schemas are part of the ontology and are not serialized;
// loading requires a KB constructed with the same ontology.
func (kb *KB) WriteInstances(w io.Writer) error {
	return kb.WriteInstancesIf(w, nil)
}

// WriteInstancesIf serializes the instances for which keep returns true
// (all of them when keep is nil) as newline-delimited JSON, in insertion
// order. keep sees a materialized view of each instance. Snapshot
// persistence instead dumps by ID ranges (writeInstancesByID); this
// filtered form serves ad-hoc exports.
func (kb *KB) WriteInstancesIf(w io.Writer, keep func(*Instance) bool) error {
	n := kb.NumInstances()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for id := 0; id < n; id++ {
		in := kb.Instance(InstanceID(id))
		if keep != nil && !keep(in) {
			continue
		}
		if err := encodeInstance(enc, in); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeInstancesByID serializes the given instances, in the given order,
// as newline-delimited JSON. Snapshot segments are written through this:
// the ID list is a contiguous run of the KB's ingestion order.
func (kb *KB) writeInstancesByID(w io.Writer, ids []InstanceID) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, id := range ids {
		in := kb.Instance(id)
		if in == nil {
			return fmt.Errorf("kb: writing instance %d: no such instance", id)
		}
		if err := encodeInstance(enc, in); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// encodeInstance writes one instance as a JSON line. Facts marshal as a
// map, and encoding/json sorts map keys, so the line's fact order is the
// package's canonical ascending PropertyID order regardless of storage
// layout.
func encodeInstance(enc *json.Encoder, in *Instance) error {
	ji := jsonInstance{
		Class:       string(in.Class),
		Labels:      in.Labels,
		Abstract:    in.Abstract,
		Popularity:  in.Popularity,
		Facts:       make(map[string]jsonValue, len(in.Facts)),
		Provenance:  in.Provenance,
		IngestEpoch: in.IngestEpoch,
	}
	for pid, v := range in.Facts {
		ji.Facts[string(pid)] = toJSONValue(v)
	}
	if err := enc.Encode(&ji); err != nil {
		return fmt.Errorf("kb: writing instance %d: %w", in.ID, err)
	}
	return nil
}

// ReadInstances loads newline-delimited JSON instances into the KB,
// appending to any existing instances. Instances referencing classes
// unknown to the ontology are rejected. The whole stream is parsed before
// anything is stored (a malformed line therefore adds nothing) and then
// added in one AddInstances batch, so readers see the label index gain
// the whole stream at once.
func (kb *KB) ReadInstances(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	var ins []*Instance
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ji jsonInstance
		if err := json.Unmarshal(raw, &ji); err != nil {
			return fmt.Errorf("kb: line %d: %w", line, err)
		}
		class := ClassID(ji.Class)
		if kb.Class(class) == nil {
			return fmt.Errorf("kb: line %d: unknown class %q", line, ji.Class)
		}
		facts := make(map[PropertyID]dtype.Value, len(ji.Facts))
		for pid, jv := range ji.Facts {
			v, err := fromJSONValue(jv)
			if err != nil {
				return fmt.Errorf("kb: line %d, property %s: %w", line, pid, err)
			}
			facts[PropertyID(pid)] = v
		}
		ins = append(ins, &Instance{
			Class:       class,
			Labels:      ji.Labels,
			Abstract:    ji.Abstract,
			Popularity:  ji.Popularity,
			Facts:       facts,
			Provenance:  ji.Provenance,
			IngestEpoch: ji.IngestEpoch,
		})
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("kb: reading instances: %w", err)
	}
	kb.AddInstances(ins)
	return nil
}
