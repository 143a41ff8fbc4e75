package strsim

// Interner is an instantiable raw-string intern pool: every distinct
// string gets a dense int32 ID that round-trips byte-exactly through
// Lookup. It complements the process-wide token interner of intern.go,
// which holds normalized tokens for the similarity kernels: an Interner
// is owned by one data structure (the columnar KB store interns instance
// labels and fact strings through one), lives and dies with its owner,
// and keeps exact spellings rather than normalized forms.
//
// An Interner does no locking of its own: the owner synchronizes access,
// calling Intern only under its write lock and Lookup/Len/Bytes under at
// least its read lock. This keeps the per-access cost of the owner's hot
// read paths to a slice index.
type Interner struct {
	ids  map[string]int32
	strs []string
	// payload accumulates the byte length of the interned strings for
	// Bytes, so memory accounting never re-walks the pool.
	payload int64
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]int32, 256)}
}

// Intern returns the ID of s, assigning the next dense ID on first
// sight. IDs start at 0 and are stable for the interner's lifetime, but
// depend on insertion history — they may only key in-memory state owned
// by the same holder, never persisted or cross-process values.
func (it *Interner) Intern(s string) int32 {
	if id, ok := it.ids[s]; ok {
		return id
	}
	id := int32(len(it.strs))
	it.strs = append(it.strs, s)
	it.ids[s] = id
	it.payload += int64(len(s))
	return id
}

// Lookup returns the string with the given ID. IDs come only from
// Intern, so an out-of-range ID is a caller bug and panics like any
// slice index.
func (it *Interner) Lookup(id int32) string { return it.strs[id] }

// Len returns the number of distinct interned strings.
func (it *Interner) Len() int { return len(it.strs) }

// Bytes returns the approximate resident size of the interner: string
// payloads plus per-entry slice and map bookkeeping (string headers and
// map cells, estimated at 48 bytes per entry).
func (it *Interner) Bytes() int64 {
	return it.payload + int64(len(it.strs))*48
}
