// Package catalog maintains table metadata: the IMMORTAL flag of Section
// 4.1, the snapshot-versioning flag, tree roots, and (for the SQL layer)
// column schemas. The catalog serializes to JSON; the engine stores it in
// the pager's meta area and logs full snapshots on DDL and root changes.
package catalog

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"immortaldb/internal/storage/page"
)

// ColType is a SQL-ish column type.
type ColType string

// Column types supported by the SQL layer.
const (
	TypeSmallInt ColType = "SMALLINT"
	TypeInt      ColType = "INT"
	TypeBigInt   ColType = "BIGINT"
	TypeVarChar  ColType = "VARCHAR"
	TypeDateTime ColType = "DATETIME"
)

// Column describes one table column.
type Column struct {
	Name       string  `json:"name"`
	Type       ColType `json:"type"`
	PrimaryKey bool    `json:"primary_key,omitempty"`
}

// Table is one table's metadata. The Immortal flag determines the three
// behaviours of Section 4.1: no version GC, PTT entries at commit, and AS OF
// queries. Snapshot marks conventional tables altered to keep recent
// versions for snapshot isolation.
type Table struct {
	ID         uint32   `json:"id"`
	Name       string   `json:"name"`
	Immortal   bool     `json:"immortal"`
	Snapshot   bool     `json:"snapshot"`
	Root       page.ID  `json:"root"`
	RootIsLeaf bool     `json:"root_is_leaf"`
	Columns    []Column `json:"columns,omitempty"`
	// HistIndex is the historical index mode the table was created in
	// ("chain" or "tsb"). Entries written before the mode was recorded
	// lack it.
	HistIndex string `json:"hist_index,omitempty"`
}

// Versioned reports whether the table's records carry versioning tails.
func (t *Table) Versioned() bool { return t.Immortal || t.Snapshot }

// PrimaryKey returns the primary key column, if declared.
func (t *Table) PrimaryKey() (Column, bool) {
	for _, c := range t.Columns {
		if c.PrimaryKey {
			return c, true
		}
	}
	return Column{}, false
}

// Catalog is the table directory. It is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	byName map[string]*Table
	byID   map[uint32]*Table
	nextID uint32
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		byName: make(map[string]*Table),
		byID:   make(map[uint32]*Table),
		nextID: 1,
	}
}

// Errors.
var (
	ErrExists   = fmt.Errorf("catalog: table already exists")
	ErrNotFound = fmt.Errorf("catalog: no such table")
)

// Create registers a new table and assigns its ID.
func (c *Catalog) Create(t Table) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byName[t.Name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, t.Name)
	}
	t.ID = c.nextID
	c.nextID++
	tt := &t
	c.byName[t.Name] = tt
	c.byID[t.ID] = tt
	return tt, nil
}

// Get returns a table by name.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return t, nil
}

// ByID returns a table by ID.
func (c *Catalog) ByID(id uint32) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.byID[id]
	return t, ok
}

// Drop removes a table.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(c.byName, name)
	delete(c.byID, t.ID)
	return nil
}

// SetRoot updates a table's tree root.
func (c *Catalog) SetRoot(id uint32, root page.ID, isLeaf bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	t.Root = root
	t.RootIsLeaf = isLeaf
	return nil
}

// EnableSnapshot turns on snapshot versioning for a conventional table
// (ALTER TABLE ... ENABLE SNAPSHOT). It fails on tables already holding
// data, since their records lack versioning tails.
func (c *Catalog) EnableSnapshot(name string, empty bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if t.Immortal || t.Snapshot {
		return nil
	}
	if !empty {
		return fmt.Errorf("catalog: cannot enable snapshot on non-empty table %s", name)
	}
	t.Snapshot = true
	return nil
}

// List returns the tables sorted by name.
func (c *Catalog) List() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.byName))
	for _, t := range c.byName {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

type serialized struct {
	NextID uint32  `json:"next_id"`
	Tables []Table `json:"tables"`
}

// Marshal serializes the catalog.
func (c *Catalog) Marshal() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := serialized{NextID: c.nextID}
	for _, t := range c.List2Locked() {
		s.Tables = append(s.Tables, *t)
	}
	return json.Marshal(&s)
}

// List2Locked returns tables sorted by ID; the caller holds the lock.
func (c *Catalog) List2Locked() []*Table {
	out := make([]*Table, 0, len(c.byID))
	for _, t := range c.byID {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Load replaces the catalog's contents from a serialized snapshot.
func (c *Catalog) Load(data []byte) error {
	var s serialized
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("catalog: parse: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byName = make(map[string]*Table, len(s.Tables))
	c.byID = make(map[uint32]*Table, len(s.Tables))
	c.nextID = s.NextID
	if c.nextID == 0 {
		c.nextID = 1
	}
	for i := range s.Tables {
		t := s.Tables[i]
		tt := &t
		c.byName[t.Name] = tt
		c.byID[t.ID] = tt
	}
	return nil
}
