package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/url"
	"testing"
)

// planKeyOfValues is the key PlanKeyOf must find: the key's parameters
// read from url.ParseQuery's values, as the GET parser reads them.
func planKeyOfValues(v url.Values) PlanKey {
	q := Query{Strategy: v.Get("strategy"), Model: v.Get("model")}
	q.N, _ = intParam(v, "n", 0)
	q.F, _ = intParam(v, "f", -1)
	q.MinDist, _ = floatParam(v, "mindist", 1)
	q.Votes, _ = intParam(v, "votes", 0)
	q.keyDefaults()
	return q.key()
}

// marshalHash is the hash PlanKey.Hash must give: the hex SHA-256 of
// json.Marshal's encoding of the key.
func marshalHash(t *testing.T, k PlanKey) string {
	blob, err := json.Marshal(k)
	if err != nil {
		t.Fatalf("marshal %+v: %v", k, err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// FuzzRouteKey requires the key PlanKeyOf reads from a raw query
// string, and its hash, to equal the key read from url.ParseQuery's
// values and the hash of its json.Marshal encoding: the ring places
// every request where it placed it before.
func FuzzRouteKey(f *testing.F) {
	for _, raw := range []string{
		"n=3&f=1",
		"n=5&f=2&mindist=0.5&strategy=doubling&model=byzantine&votes=2",
		"n=41&f=21&xs=1.5,-2,3.25",
		"n=5&f=2&mindist=0&model=crash",
		"n=5&f=2&mindist=-0&votes=0",
		"n=abc&f=2&mindist=NaN",
		"n=5&f=2&mindist=Inf&votes=1e3",
		// Escapes, '+' and escaped names.
		"%6E=5&f=2&strat%65gy=cone%3A2.5",
		"n=5&f=2&strategy=a+b&model=%62yzantine",
		"n=5&f=2&strategy=%3Cb%3E%26%22&model=%C3%A9",
		"n=5&f=2&strategy=%zz&strategy=doubling",
		"n%=4&n=5&f=2",
		// ';' pairs, repeated and empty keys.
		"n=5;f=2&f=3",
		"n=5&f=2;x=1&f=1&mindist=2;",
		"n=5&n=6&f=2&f=3&mindist=2&mindist=3",
		"&&n=5&=&f&f=2&mindist&mindist=4",
		"n=5&f=2&strategy=&strategy=doubling",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw)
		got, want := PlanKeyOf(raw), planKeyOfValues(v)
		if got != want {
			t.Fatalf("PlanKeyOf(%q) = %+v, url.ParseQuery gives %+v", raw, got, want)
		}
		if h, wh := got.Hash(), marshalHash(t, want); h != wh {
			t.Fatalf("%q: Hash %s, json.Marshal gives %s", raw, h, wh)
		}
	})
}
