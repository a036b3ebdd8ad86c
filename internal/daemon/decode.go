package daemon

import (
	"bytes"
	"encoding/json"

	"flowsched/internal/switchnet"
)

// flowsRequest is the POST /flows body. Release rounds are assigned by
// the scheduler (its clock is virtual rounds, which a client cannot
// observe), so any release a client sets is ignored.
type flowsRequest struct {
	Flows []switchnet.Flow `json:"flows"`
}

// decodeFlows is the one decode entry point of POST /flows. The canonical
// body — one object with the single member "flows", an array of objects
// whose members are "in", "out", "demand" and "release" spelled exactly
// so, with plain integer values — is read in one pass by scanFlows and
// appended to dst, a scratch slice the caller may reuse. Anything else
// goes, as the same bytes, through encoding/json exactly as before the
// scanner existed, into a fresh slice, so which bodies are accepted, what
// they decode to and what the 400 says are encoding/json's by
// construction; fallback reports that this slower path ran.
func decodeFlows(body []byte, dst []switchnet.Flow) (flows []switchnet.Flow, fallback bool, err error) {
	if flows, ok := scanFlows(body, dst); ok {
		return flows, false, nil
	}
	var req flowsRequest
	err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Flows, true, err
}

// scanFlows appends the flows of a canonical body to dst, or reports
// false without judging it: it must never accept what encoding/json
// would reject or would decode differently (FuzzDecodeFlows holds it to
// that), and is free to give up on anything. Each flow starts from zero,
// whatever dst's spare capacity held before.
func scanFlows(b []byte, dst []switchnet.Flow) ([]switchnet.Flow, bool) {
	i := ws(b, 0)
	if !is(b, i, '{') {
		return dst, false
	}
	if i = ws(b, i+1); len(b)-i < 7 || string(b[i:i+7]) != `"flows"` {
		return dst, false
	}
	if i = ws(b, i+7); !is(b, i, ':') {
		return dst, false
	}
	if i = ws(b, i+1); !is(b, i, '[') {
		return dst, false
	}
	flows := dst
	if i = ws(b, i+1); is(b, i, ']') {
		i++
	} else {
		for {
			var ok bool
			flows = append(flows, switchnet.Flow{})
			if i, ok = scanFlow(b, i, &flows[len(flows)-1]); !ok {
				return dst, false
			}
			if i = ws(b, i); is(b, i, ',') {
				i = ws(b, i+1)
				continue
			}
			if !is(b, i, ']') {
				return dst, false
			}
			i++
			break
		}
	}
	if i = ws(b, i); !is(b, i, '}') {
		return dst, false
	}
	// Decoder.Decode ignores what follows the first value; leave deciding
	// what "follows" means to it.
	if ws(b, i+1) != len(b) {
		return dst, false
	}
	return flows, true
}

// scanFlow reads one flow object starting at b[i] into f and returns the
// index after its closing brace. A repeated key overwrites, as it does in
// encoding/json. Each key is compared with its own constant, which
// compiles to a few word loads.
func scanFlow(b []byte, i int, f *switchnet.Flow) (int, bool) {
	if !is(b, i, '{') {
		return 0, false
	}
	if i = ws(b, i+1); is(b, i, '}') {
		return i + 1, true
	}
	for {
		// The byte after the quote tells the four keys apart.
		var dst *int
		if len(b)-i < 4 {
			return 0, false
		}
		switch b[i+1] {
		case 'i':
			if string(b[i:i+4]) != `"in"` {
				return 0, false
			}
			i, dst = i+4, &f.In
		case 'o':
			if len(b)-i < 5 || string(b[i:i+5]) != `"out"` {
				return 0, false
			}
			i, dst = i+5, &f.Out
		case 'd':
			if len(b)-i < 8 || string(b[i:i+8]) != `"demand"` {
				return 0, false
			}
			i, dst = i+8, &f.Demand
		case 'r':
			if len(b)-i < 9 || string(b[i:i+9]) != `"release"` {
				return 0, false
			}
			i, dst = i+9, &f.Release
		default:
			return 0, false
		}
		if i = ws(b, i); !is(b, i, ':') {
			return 0, false
		}
		var ok bool
		if i, ok = scanInt(b, ws(b, i+1), dst); !ok {
			return 0, false
		}
		if i = ws(b, i); is(b, i, ',') {
			i = ws(b, i+1)
			continue
		}
		if !is(b, i, '}') {
			return 0, false
		}
		return i + 1, true
	}
}

// maxIntDigits keeps scanInt clear of overflow: 18 digits fit an int64
// with room to spare; longer numbers are encoding/json's to judge.
const maxIntDigits = 18

// scanInt reads a JSON integer — '-'? ('0' | [1-9][0-9]*) with no
// fraction or exponent after it — of at most maxIntDigits digits.
func scanInt(b []byte, i int, dst *int) (int, bool) {
	neg := is(b, i, '-')
	if neg {
		i++
	}
	// One digit past the limit is read, so a longer number is refused,
	// not cut short.
	d := b[i:min(len(b), i+maxIntDigits+1)]
	n := 0
	var v int64
	for n < len(d) && d[n]-'0' <= 9 {
		v = v*10 + int64(d[n]-'0')
		n++
	}
	if n == 0 || n > maxIntDigits || (d[0] == '0' && n > 1) {
		return 0, false // no digits, too many, or a leading zero
	}
	if i += n; i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, false
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, false // a 32-bit int: out of range there, an error in encoding/json
	}
	*dst = int(v)
	return i, true
}

// ws returns the index of the first byte at or after b[i] that is not
// JSON whitespace. Every whitespace byte is at most ' ', so a byte above
// it — the usual case, as encoding/json writes none — costs one compare.
func ws(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// is reports whether b[i] is c.
func is(b []byte, i int, c byte) bool { return i < len(b) && b[i] == c }
