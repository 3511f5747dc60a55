package blobstore

import (
	"context"
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// Schemes lists the store locations Resolve understands, for error
// messages and flag docs.
const Schemes = "file://PATH (or a bare path), mem://NAME[/PREFIX], s3://BUCKET[/PREFIX]?endpoint=URL&region=R, faulty+URL?fault=P&fault-seed=N[&fault-ops=put,get,...]"

// Resolve opens the store a location names:
//
//	/var/archives            local filesystem (bare paths keep working)
//	file:///var/archives     local filesystem, explicit
//	mem://crawl1/eos         in-process memory store "crawl1", keys under eos/
//	s3://bucket/prefix       S3-compatible service (endpoint=, region= in query)
//
// Resolving the same mem:// name twice in one process yields the same
// namespace, so a writer and a later reader see each other's objects.
func Resolve(rawurl string) (Store, error) {
	if inner, ok := strings.CutPrefix(rawurl, "faulty+"); ok {
		return resolveFaulty(inner)
	}
	scheme, rest, ok := strings.Cut(rawurl, "://")
	if !ok {
		if rawurl == "" {
			return nil, fmt.Errorf("blobstore: empty store location")
		}
		return NewFile(rawurl), nil
	}
	switch scheme {
	case "file":
		if rest == "" {
			return nil, fmt.Errorf("blobstore: file:// needs a path")
		}
		return NewFile(rest), nil
	case "mem":
		name, prefix, _ := strings.Cut(rest, "/")
		if name == "" {
			return nil, fmt.Errorf("blobstore: mem:// needs a name (mem://NAME[/PREFIX])")
		}
		st := OpenMemory(name)
		if prefix = strings.Trim(prefix, "/"); prefix != "" {
			return &prefixed{base: st, prefix: prefix + "/", url: "mem://" + name + "/" + prefix}, nil
		}
		return st, nil
	case "s3":
		return newS3(rawurl)
	default:
		return nil, fmt.Errorf("blobstore: unsupported scheme %s:// in %s (supported: %s)", scheme, rawurl, Schemes)
	}
}

// resolveFaulty opens the store named by inner (a normal Resolve
// location) and wraps it in a chaos-armed Faulty. The fault parameters
// ride in the query string and are stripped before the inner store sees
// it, so they compose with backends that take query parameters of their
// own (s3's endpoint= and region=):
//
//	faulty+mem://chaos?fault=0.05&fault-seed=7
//	faulty+file:///data/shards?fault=0.1&fault-seed=3&fault-ops=put,get
//	faulty+s3://bucket?endpoint=http://stub:9000&fault=0.02&fault-seed=1
//
// fault is the per-op failure probability (required, 0 < P ≤ 1),
// fault-seed the deterministic seed (default 1), fault-ops the comma-
// separated ops to fault (default: every op). The chaos-run driver uses
// these URLs to hand workers a flaky store through an ordinary -store
// flag.
func resolveFaulty(inner string) (Store, error) {
	base, query, _ := strings.Cut(inner, "?")
	q, err := url.ParseQuery(query)
	if err != nil {
		return nil, fmt.Errorf("blobstore: faulty+%s: parsing query: %v", inner, err)
	}
	rawP := q.Get("fault")
	if rawP == "" {
		return nil, fmt.Errorf("blobstore: faulty+%s needs fault=P (0 < P <= 1)", inner)
	}
	p, err := strconv.ParseFloat(rawP, 64)
	if err != nil || p <= 0 || p > 1 {
		return nil, fmt.Errorf("blobstore: faulty+%s: fault=%q is not a probability in (0, 1]", inner, rawP)
	}
	seed := int64(1)
	if rawSeed := q.Get("fault-seed"); rawSeed != "" {
		seed, err = strconv.ParseInt(rawSeed, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("blobstore: faulty+%s: fault-seed=%q is not an integer", inner, rawSeed)
		}
	}
	var ops []string
	if rawOps := q.Get("fault-ops"); rawOps != "" {
		for _, op := range strings.Split(rawOps, ",") {
			op = strings.TrimSpace(op)
			switch op {
			case OpPut, OpGet, OpGetRange, OpList, OpStat, OpDelete:
				ops = append(ops, op)
			default:
				return nil, fmt.Errorf("blobstore: faulty+%s: unknown op %q in fault-ops", inner, op)
			}
		}
	}
	q.Del("fault")
	q.Del("fault-seed")
	q.Del("fault-ops")
	if len(q) > 0 {
		base += "?" + q.Encode()
	}
	st, err := Resolve(base)
	if err != nil {
		return nil, err
	}
	f := NewFaulty(st)
	f.Chaos(seed, p, ops...)
	return f, nil
}

// prefixed scopes a store to a key prefix; mem://NAME/PREFIX resolves to
// one (the S3 backend carries its prefix natively).
type prefixed struct {
	base   Store
	prefix string // slash-terminated
	url    string
}

func (p *prefixed) URL() string { return p.url }

func (p *prefixed) Put(ctx context.Context, key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	return p.base.Put(ctx, p.prefix+key, data)
}

func (p *prefixed) Get(ctx context.Context, key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	return p.base.Get(ctx, p.prefix+key)
}

func (p *prefixed) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	return p.base.GetRange(ctx, p.prefix+key, off, n)
}

func (p *prefixed) List(ctx context.Context, prefix string) ([]string, error) {
	keys, err := p.base.List(ctx, p.prefix+prefix)
	if err != nil {
		return nil, err
	}
	out := keys[:0]
	for _, k := range keys {
		if strings.HasPrefix(k, p.prefix) {
			out = append(out, strings.TrimPrefix(k, p.prefix))
		}
	}
	return out, nil
}

func (p *prefixed) Stat(ctx context.Context, key string) (int64, error) {
	if err := validKey(key); err != nil {
		return 0, err
	}
	return p.base.Stat(ctx, p.prefix+key)
}

func (p *prefixed) Delete(ctx context.Context, key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	return p.base.Delete(ctx, p.prefix+key)
}
