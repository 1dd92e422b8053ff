// Package datarelease produces the anonymized login dataset the paper
// publishes (§7.4): "an entry for each login event ... the account alias
// (e.g. 'a1'), a timestamp (rounded to the day), /24 of the accessing IP,
// and login method (e.g. 'IMAP'). This anonymization was chosen to balance
// the desires of transparency and protecting the accounts in the Tripwire
// sample."
package datarelease

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"tripwire/internal/geo"
	"tripwire/internal/sim"
)

// Record is one anonymized login event.
type Record struct {
	Alias    string    // site letter + per-site account index, e.g. "a1"
	Day      time.Time // login timestamp rounded down to the day (UTC)
	Prefix24 string    // "a.b.c.0/24" of the accessing IP
	Method   string    // "IMAP", "POP3", ...
}

// Build extracts the release dataset from a completed pilot. Aliases follow
// the paper's scheme: sites lettered in first-detection order, accounts
// numbered by first access within each site.
func Build(p *sim.Pilot) []Record {
	var out []Record
	for i, det := range p.Monitor.Detections() {
		accounts := make([]string, 0, len(det.Logins))
		for email := range det.Logins {
			accounts = append(accounts, email)
		}
		sort.Slice(accounts, func(a, b int) bool {
			ta := det.Logins[accounts[a]][0].Time
			tb := det.Logins[accounts[b]][0].Time
			if !ta.Equal(tb) {
				return ta.Before(tb)
			}
			return accounts[a] < accounts[b]
		})
		for j, email := range accounts {
			alias := fmt.Sprintf("%s%d", strings.ToLower(siteLetter(i)), j+1)
			for _, ev := range det.Logins[email] {
				out = append(out, Record{
					Alias:    alias,
					Day:      ev.Time.UTC().Truncate(24 * time.Hour),
					Prefix24: geo.Anonymize24(ev.IP),
					Method:   ev.Method,
				})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Alias != out[b].Alias {
			return out[a].Alias < out[b].Alias
		}
		if !out[a].Day.Equal(out[b].Day) {
			return out[a].Day.Before(out[b].Day)
		}
		return out[a].Prefix24 < out[b].Prefix24
	})
	return out
}

func siteLetter(i int) string {
	label := ""
	for {
		label = string(rune('A'+i%26)) + label
		i = i/26 - 1
		if i < 0 {
			return label
		}
	}
}

// header is the CSV column set.
var header = []string{"alias", "day", "ip24", "method"}

// Write emits the dataset as CSV.
func Write(w io.Writer, records []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("datarelease: writing header: %w", err)
	}
	for _, r := range records {
		row := []string{r.Alias, r.Day.Format("2006-01-02"), r.Prefix24, r.Method}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("datarelease: writing record: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// Read parses a dataset written by Write.
func Read(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("datarelease: parsing CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("datarelease: empty dataset")
	}
	if strings.Join(rows[0], ",") != strings.Join(header, ",") {
		return nil, fmt.Errorf("datarelease: unexpected header %v", rows[0])
	}
	out := make([]Record, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != len(header) {
			return nil, fmt.Errorf("datarelease: row %d has %d fields", i+2, len(row))
		}
		day, err := time.Parse("2006-01-02", row[1])
		if err != nil {
			return nil, fmt.Errorf("datarelease: row %d day: %w", i+2, err)
		}
		out = append(out, Record{Alias: row[0], Day: day, Prefix24: row[2], Method: row[3]})
	}
	return out, nil
}

// Audit checks the anonymization invariants on a dataset against the pilot
// it came from: no record may carry an account email, a full IP address, or
// sub-day timing. It returns a non-nil error describing the first leak.
func Audit(records []Record, p *sim.Pilot) error {
	for i, r := range records {
		if strings.Contains(r.Alias, "@") {
			return fmt.Errorf("datarelease: record %d alias %q leaks an address", i, r.Alias)
		}
		if !strings.HasSuffix(r.Prefix24, ".0/24") {
			return fmt.Errorf("datarelease: record %d IP %q not /24-anonymized", i, r.Prefix24)
		}
		if !r.Day.Equal(r.Day.Truncate(24 * time.Hour)) {
			return fmt.Errorf("datarelease: record %d timestamp %v finer than a day", i, r.Day)
		}
	}
	// Every attributed login must be represented: transparency half of the
	// trade-off.
	if want := attributedLogins(p); len(records) != want {
		return fmt.Errorf("datarelease: %d records for %d attributed logins", len(records), want)
	}
	return nil
}

// attributedLogins counts the logins the monitor attributed to a site.
func attributedLogins(p *sim.Pilot) int {
	n := 0
	for _, det := range p.Monitor.Detections() {
		for _, evs := range det.Logins {
			n += len(evs)
		}
	}
	return n
}
