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
// so, with plain integer values — is read in one pass by scanFlows.
// Anything else goes, as the same bytes, through encoding/json exactly
// as before the scanner existed, so which bodies are accepted, what they
// decode to and what the 400 says are encoding/json's by construction;
// fallback reports that this slower path ran.
func decodeFlows(body []byte) (flows []switchnet.Flow, fallback bool, err error) {
	if flows, ok := scanFlows(body); ok {
		return flows, false, nil
	}
	var req flowsRequest
	err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Flows, true, err
}

// scanFlows decodes a canonical body into an exactly-sized slice, or
// reports false without judging it: it must never accept what
// encoding/json would reject or would decode differently
// (FuzzDecodeFlows holds it to that), and is free to give up on anything.
func scanFlows(b []byte) ([]switchnet.Flow, bool) {
	i, ok := lit(b, ws(b, 0), `{`)
	if !ok {
		return nil, false
	}
	if i, ok = lit(b, ws(b, i), `"flows"`); !ok {
		return nil, false
	}
	if i, ok = lit(b, ws(b, i), `:`); !ok {
		return nil, false
	}
	if i, ok = lit(b, ws(b, i), `[`); !ok {
		return nil, false
	}
	// In a body this scanner accepts, '{' opens the request and then one
	// flow each, nothing else: keys are matched whole and values are digits.
	flows := make([]switchnet.Flow, 0, bytes.Count(b, []byte{'{'})-1)
	if j, empty := lit(b, ws(b, i), `]`); empty {
		i = j
	} else {
		for {
			var f switchnet.Flow
			if i, ok = scanFlow(b, ws(b, i), &f); !ok {
				return nil, false
			}
			flows = append(flows, f)
			i = ws(b, i)
			if j, more := lit(b, i, `,`); more {
				i = j
				continue
			}
			if i, ok = lit(b, i, `]`); !ok {
				return nil, false
			}
			break
		}
	}
	if i, ok = lit(b, ws(b, i), `}`); !ok {
		return nil, false
	}
	// Decoder.Decode ignores what follows the first value; leave deciding
	// what "follows" means to it.
	if ws(b, i) != len(b) {
		return nil, false
	}
	return flows, true
}

// scanFlow reads one flow object starting at b[i] into f and returns the
// index after its closing brace. A repeated key overwrites, as it does in
// encoding/json.
func scanFlow(b []byte, i int, f *switchnet.Flow) (int, bool) {
	i, ok := lit(b, i, `{`)
	if !ok {
		return 0, false
	}
	if j, empty := lit(b, ws(b, i), `}`); empty {
		return j, true
	}
	for {
		i = ws(b, i)
		// The byte after the quote tells the four keys apart.
		var key string
		var dst *int
		if i+1 >= len(b) {
			return 0, false
		}
		switch b[i+1] {
		case 'i':
			key, dst = `"in"`, &f.In
		case 'o':
			key, dst = `"out"`, &f.Out
		case 'd':
			key, dst = `"demand"`, &f.Demand
		default:
			key, dst = `"release"`, &f.Release
		}
		if i, ok = lit(b, i, key); !ok {
			return 0, false
		}
		if i, ok = lit(b, ws(b, i), `:`); !ok {
			return 0, false
		}
		if i, ok = scanInt(b, ws(b, i), dst); !ok {
			return 0, false
		}
		i = ws(b, i)
		if j, more := lit(b, i, `,`); more {
			i = j
			continue
		}
		return lit(b, i, `}`)
	}
}

// maxIntDigits keeps scanInt clear of overflow: 18 digits fit an int64
// with room to spare; longer numbers are encoding/json's to judge.
const maxIntDigits = 18

// scanInt reads a JSON integer — '-'? ('0' | [1-9][0-9]*) with no
// fraction or exponent after it — of at most maxIntDigits digits.
func scanInt(b []byte, i int, dst *int) (int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int64(b[i]-'0')
		i++
		if i-start > maxIntDigits {
			return 0, false
		}
	}
	if i == start || (b[start] == '0' && i-start > 1) {
		return 0, false // no digits, or a leading zero
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
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
// JSON whitespace.
func ws(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// lit steps over s at b[i:], or reports false.
func lit(b []byte, i int, s string) (int, bool) {
	if len(b)-i < len(s) || string(b[i:i+len(s)]) != s {
		return i, false
	}
	return i + len(s), true
}
