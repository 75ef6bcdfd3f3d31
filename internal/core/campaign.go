package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"smtflex/internal/journal"
	"smtflex/internal/study"
)

// profilesKey names the campaign journal's record of the measured profiles.
// Every other record is a finished table under its figure id.
const profilesKey = "profiles"

// Campaign regenerates figures on a Simulator and, given a journal
// directory, makes the run resumable. After each figure it journals the
// profiles measured so far and the finished table; a campaign reopened on
// the same directory serves the finished tables and re-measures no profile.
// The journal is guarded by the study fingerprint (µops, mixes, seed and
// model), so a run with other parameters wipes it and starts fresh.
type Campaign struct {
	sim    *Simulator
	j      *journal.Journal
	tables map[string]*study.Table

	// Resumed is the number of finished figures found in the journal.
	Resumed int
	// Reloaded is the number of measured profiles loaded from the journal.
	Reloaded int
}

// OpenCampaign opens the campaign journaled in dir, creating it if needed,
// and loads its profiles into the simulator. An empty dir gives a campaign
// that journals and resumes nothing. The journal drops corrupt records, so
// their figures are recomputed.
func (s *Simulator) OpenCampaign(dir string) (*Campaign, error) {
	c := &Campaign{sim: s, tables: map[string]*study.Table{}}
	if dir == "" {
		return c, nil
	}
	j, _, err := journal.Open(dir, s.st.Fingerprint())
	if err != nil {
		return nil, err
	}
	// A record that passed its digest but does not decode was not written
	// by this layout: refuse it rather than guess.
	var bad error
	_, _, err = j.Replay(func(key string, payload []byte) {
		if bad != nil {
			return
		}
		var err error
		if key == profilesKey {
			c.Reloaded, err = s.src.LoadJSON(bytes.NewReader(payload))
		} else {
			t := new(study.Table)
			if err = json.Unmarshal(payload, t); err == nil {
				c.tables[key] = t
			}
		}
		if err != nil {
			bad = fmt.Errorf("core: campaign journal %s, record %s: %w", dir, key, err)
		}
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return nil, err
	}
	c.j = j
	c.Resumed = len(c.tables)
	return c, nil
}

// Table returns the table that an earlier run of the campaign finished for
// id, if the journal held one when the campaign was opened.
func (c *Campaign) Table(id string) (*study.Table, bool) {
	t, ok := c.tables[id]
	return t, ok
}

// Figure computes the table for id and journals the profiles measured so
// far, then the table, so a journaled table never lacks its profiles.
func (c *Campaign) Figure(ctx context.Context, id string) (*study.Table, error) {
	tab, err := c.sim.Figure(ctx, id)
	if err != nil {
		return nil, err
	}
	if err := c.SaveProfiles(); err != nil {
		return nil, err
	}
	if err := c.put(id, tab); err != nil {
		return nil, err
	}
	return tab, nil
}

// SaveProfiles journals every profile measured so far, replacing the
// previous profiles record.
func (c *Campaign) SaveProfiles() error {
	if c.j == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := c.sim.src.SaveJSON(&buf); err != nil {
		return err
	}
	return c.j.Put(profilesKey, buf.Bytes())
}

// put journals a finished table under its figure id. encoding/json renders
// each float64 in the shortest form that parses back to the same bits, so a
// resumed table renders byte-identically.
func (c *Campaign) put(id string, tab *study.Table) error {
	if c.j == nil {
		return nil
	}
	b, err := json.Marshal(tab)
	if err != nil {
		return fmt.Errorf("core: journaling %s: %w", id, err)
	}
	return c.j.Put(id, b)
}
