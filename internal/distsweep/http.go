package distsweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"tripwire/internal/httpx"
	"tripwire/internal/obs"
)

// maxBody bounds control-plane request bodies; a SeedResult is a few
// hundred bytes, so 1 MiB is generous.
const maxBody = 1 << 20

// Wire request bodies. Every mutating request names its worker so the
// coordinator can account liveness, and quotes (seed_index, generation)
// so the lease fence applies.
type leaseRequest struct {
	Worker string `json:"worker"`
}

type leaseResponse struct {
	SeedIndex  int   `json:"seed_index"`
	Generation int   `json:"generation"`
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

type renewRequest struct {
	Worker     string `json:"worker"`
	SeedIndex  int    `json:"seed_index"`
	Generation int    `json:"generation"`
}

type completeRequest struct {
	Worker     string          `json:"worker"`
	SeedIndex  int             `json:"seed_index"`
	Generation int             `json:"generation"`
	Result     json.RawMessage `json:"result"`
	Digest     string          `json:"digest"`
}

// Handler builds the coordinator's HTTP control plane:
//
//	GET  /sweep      sweep spec (N, scale, lease TTL) → Spec
//	POST /lease      lease the next seed task → 200 leaseResponse,
//	                 204 nothing leasable right now (poll again),
//	                 410 sweep complete (worker should exit)
//	POST /renew      extend a held lease → 200, or 409 lease lost
//	POST /complete   submit a result → 200, 409 stale/duplicate
//	                 (discarded — the worker just moves on), 400 digest
//	                 or decode failure
//	GET  /status     task-set progress → Status
//	GET  /metrics, /metrics.json, /healthz   observability (internal/obs)
//
// Every POST body is read by httpx.DecodeJSON under maxBody. When
// opts.Secret is set it must carry httpx.Sign(secret, body); bad or
// missing signatures get 401. The httpx per-IP token-bucket limiter wraps
// everything but /healthz when opts.Rate > 0.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /sweep", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, c.Spec())
	})

	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !httpx.DecodeJSON(w, r, maxBody, c.opts.Secret, &req) {
			return
		}
		idx, gen, ok := c.Lease(req.Worker)
		if !ok {
			if c.Remaining() == 0 {
				httpx.WriteError(w, http.StatusGone, "sweep complete")
				return
			}
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusNoContent)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, leaseResponse{
			SeedIndex:  idx,
			Generation: gen,
			LeaseTTLMS: c.opts.LeaseTTL.Milliseconds(),
		})
	})

	mux.HandleFunc("POST /renew", func(w http.ResponseWriter, r *http.Request) {
		var req renewRequest
		if !httpx.DecodeJSON(w, r, maxBody, c.opts.Secret, &req) {
			return
		}
		if !c.Renew(req.Worker, req.SeedIndex, req.Generation) {
			httpx.WriteError(w, http.StatusConflict, "lease lost")
			return
		}
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "renewed"})
	})

	mux.HandleFunc("POST /complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !httpx.DecodeJSON(w, r, maxBody, c.opts.Secret, &req) {
			return
		}
		err := c.Complete(req.Worker, req.SeedIndex, req.Generation, req.Result, req.Digest)
		var ce *CompleteError
		switch {
		case err == nil:
			httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
		case errors.As(err, &ce) && ce.Reason != discardDigest:
			// Stale generation or duplicate: the seed is (or will be) covered
			// by another completion; the worker should just move on.
			httpx.WriteError(w, http.StatusConflict, err.Error())
		default:
			httpx.WriteError(w, http.StatusBadRequest, err.Error())
		}
	})

	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, c.Status())
	})

	mux.Handle("/metrics", obs.Handler(c.opts.Metrics))
	mux.Handle("/metrics.json", obs.Handler(c.opts.Metrics))
	mux.Handle("/healthz", obs.Handler(c.opts.Metrics))

	return httpx.NewRateLimiter(c.opts.Rate, c.opts.Burst).Middleware(mux)
}

// Client is the worker side of the control plane: thin typed wrappers
// over the HTTP endpoints, signing request bodies when a secret is set.
type Client struct {
	// BaseURL is the coordinator root, e.g. "http://10.0.0.1:9090".
	BaseURL string
	// Secret must match the coordinator's; empty sends unsigned requests.
	Secret string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

func (cl *Client) httpClient() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return http.DefaultClient
}

// post sends one signed POST and returns the response (caller closes).
func (cl *Client) post(path string, v any) (*http.Response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, cl.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if cl.Secret != "" {
		req.Header.Set(httpx.SignatureHeader, httpx.Sign(cl.Secret, body))
	}
	return cl.httpClient().Do(req)
}

// Spec fetches the sweep description (the join handshake).
func (cl *Client) Spec() (Spec, error) {
	resp, err := cl.httpClient().Get(cl.BaseURL + "/sweep")
	if err != nil {
		return Spec{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Spec{}, fmt.Errorf("distsweep: join: %w", httpx.ResponseError(resp))
	}
	var s Spec
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("distsweep: decoding spec: %w", err)
	}
	return s, nil
}

// Lease outcomes.
var (
	// ErrSweepDone reports the coordinator has every result it needs.
	ErrSweepDone = errors.New("distsweep: sweep complete")
	// ErrNoTask reports nothing is leasable right now (all tasks leased
	// out); the worker should poll again shortly.
	ErrNoTask = errors.New("distsweep: no task available")
	// ErrLeaseLost reports the coordinator fenced this lease off (expired
	// and re-issued, or completed by another worker).
	ErrLeaseLost = errors.New("distsweep: lease lost")
)

// Lease asks for the next seed task.
func (cl *Client) Lease(worker string) (leaseResponse, error) {
	resp, err := cl.post("/lease", leaseRequest{Worker: worker})
	if err != nil {
		return leaseResponse{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var lr leaseResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&lr); err != nil {
			return leaseResponse{}, fmt.Errorf("distsweep: decoding lease: %w", err)
		}
		return lr, nil
	case http.StatusNoContent:
		return leaseResponse{}, ErrNoTask
	case http.StatusGone:
		return leaseResponse{}, ErrSweepDone
	default:
		return leaseResponse{}, fmt.Errorf("distsweep: lease: %w", httpx.ResponseError(resp))
	}
}

// Renew extends a held lease; ErrLeaseLost means stop working the seed.
func (cl *Client) Renew(worker string, seedIndex, generation int) error {
	resp, err := cl.post("/renew", renewRequest{Worker: worker, SeedIndex: seedIndex, Generation: generation})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return ErrLeaseLost
	default:
		return fmt.Errorf("distsweep: renew: %w", httpx.ResponseError(resp))
	}
}

// Complete submits one seed's canonical result bytes under the lease
// fence. ErrLeaseLost means the completion was discarded (stale or
// duplicate) — the sweep no longer needs it, which a worker treats as
// success for its own control flow.
func (cl *Client) Complete(worker string, seedIndex, generation int, resultBytes []byte) error {
	resp, err := cl.post("/complete", completeRequest{
		Worker:     worker,
		SeedIndex:  seedIndex,
		Generation: generation,
		Result:     json.RawMessage(resultBytes),
		Digest:     Digest(resultBytes),
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return ErrLeaseLost
	default:
		return fmt.Errorf("distsweep: complete: %w", httpx.ResponseError(resp))
	}
}
