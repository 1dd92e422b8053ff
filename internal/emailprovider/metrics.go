package emailprovider

import (
	"tripwire/internal/obs"
)

// Metrics aggregates provider telemetry. A nil *Metrics is a no-op, so the
// field can stay unset on providers running without observability.
type Metrics struct {
	// logins is indexed by access method; resolved at wiring time.
	logins       [len(methodNames)]*obs.Counter
	authFailures *obs.Counter
	throttled    *obs.Counter
	lockedOut    *obs.Counter
	frozen       *obs.Counter
	deactivated  *obs.Counter
	forcedResets *obs.Counter
}

// NewMetrics registers the provider metric families on r and exposes the
// account and login-log sizes as collection-time gauges.
func (p *Provider) NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	vec := r.CounterVec("tripwire_provider_logins_total", "Successful account logins by access method.", "method", "imap", "pop3", "web")
	m := &Metrics{
		logins: [...]*obs.Counter{
			methodIMAP: vec.With("imap"),
			methodPOP3: vec.With("pop3"),
			methodWeb:  vec.With("web"),
		},
		authFailures: r.Counter("tripwire_provider_auth_failures_total", "Rejected logins (bad password, unknown account, or forced reset)."),
		throttled:    r.Counter("tripwire_provider_throttled_logins_total", "Logins rejected while an account was brute-force throttled."),
		lockedOut:    r.Counter("tripwire_provider_locked_logins_total", "Logins rejected because the account was frozen or deactivated."),
		frozen:       r.Counter("tripwire_provider_accounts_frozen_total", "Accounts frozen for suspicious activity."),
		deactivated:  r.Counter("tripwire_provider_accounts_deactivated_total", "Accounts deactivated for sending spam."),
		forcedResets: r.Counter("tripwire_provider_forced_resets_total", "Provider-forced password resets after recognized compromise."),
	}
	r.GaugeFunc("tripwire_provider_accounts", "Provisioned honey accounts.", func() int64 { return int64(p.NumAccounts()) })
	r.GaugeFunc("tripwire_provider_login_log_size", "Login events currently held in the provider log.", func() int64 {
		return int64(p.log.size())
	})
	return m
}

func (m *Metrics) loginOK(method uint8) {
	if m == nil {
		return
	}
	m.logins[method].Inc()
}
