package heap

import "fmt"

// Kind classifies object layouts.
type Kind uint8

const (
	// Scalar objects have a fixed number of reference slots followed by a
	// fixed number of data words, both given by the type descriptor.
	Scalar Kind = iota
	// RefArray objects hold Length() reference slots.
	RefArray
	// WordArray objects hold Length() non-reference data words.
	WordArray
)

func (k Kind) String() string {
	switch k {
	case Scalar:
		return "scalar"
	case RefArray:
		return "refarray"
	case WordArray:
		return "wordarray"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// TypeID indexes a type in a Registry. IDs are small dense integers so
// they fit the object header's type field.
type TypeID uint32

// maxTypeID bounds TypeID so it fits in the header's 24-bit type field.
const maxTypeID = 1<<24 - 1

// TypeDesc describes the layout of a class of objects, playing the role
// of Jikes RVM's TIB: it is what the collector consults to find an
// object's reference slots and size.
type TypeDesc struct {
	ID        TypeID
	Name      string
	Kind      Kind
	RefSlots  int // scalar only: number of reference slots
	DataWords int // scalar only: number of data words after the refs
}

// Size returns the total object size in bytes for an instance of t with
// the given array length (ignored for scalars).
func (t *TypeDesc) Size(length int) int {
	switch t.Kind {
	case Scalar:
		return (headerWords + t.RefSlots + t.DataWords) * WordBytes
	case RefArray, WordArray:
		return (headerWords + length) * WordBytes
	default:
		panic("heap: unknown kind")
	}
}

// NumRefs returns the number of reference slots in an instance of t with
// the given array length.
func (t *TypeDesc) NumRefs(length int) int {
	switch t.Kind {
	case Scalar:
		return t.RefSlots
	case RefArray:
		return length
	default:
		return 0
	}
}

// Registry interns type descriptors. The zero TypeID is reserved so that
// a zero header word is always invalid — it catches reads of unformatted
// memory in tests.
type Registry struct {
	types  []*TypeDesc
	byName map[string]*TypeDesc
}

// NewRegistry returns an empty registry with TypeID 0 reserved.
func NewRegistry() *Registry {
	return &Registry{
		types:  []*TypeDesc{nil}, // ID 0 reserved
		byName: make(map[string]*TypeDesc),
	}
}

// Define registers a new type and assigns its ID. It panics on duplicate
// names or invalid layouts; type definition is program setup, not a
// recoverable runtime event.
func (r *Registry) Define(name string, kind Kind, refSlots, dataWords int) *TypeDesc {
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("heap: duplicate type %q", name))
	}
	if kind != Scalar && (refSlots != 0 || dataWords != 0) {
		panic(fmt.Sprintf("heap: type %q: array kinds take no slot counts", name))
	}
	if refSlots < 0 || dataWords < 0 {
		panic(fmt.Sprintf("heap: type %q: negative layout", name))
	}
	if len(r.types) > maxTypeID {
		panic("heap: too many types")
	}
	t := &TypeDesc{
		ID:        TypeID(len(r.types)),
		Name:      name,
		Kind:      kind,
		RefSlots:  refSlots,
		DataWords: dataWords,
	}
	r.types = append(r.types, t)
	r.byName[name] = t
	return t
}

// DefineScalar registers a scalar type with refSlots references and
// dataWords words of non-reference payload.
func (r *Registry) DefineScalar(name string, refSlots, dataWords int) *TypeDesc {
	return r.Define(name, Scalar, refSlots, dataWords)
}

// DefineRefArray registers a reference-array type.
func (r *Registry) DefineRefArray(name string) *TypeDesc {
	return r.Define(name, RefArray, 0, 0)
}

// DefineWordArray registers a data-array type.
func (r *Registry) DefineWordArray(name string) *TypeDesc {
	return r.Define(name, WordArray, 0, 0)
}

// Get returns the descriptor for id, or panics if id is unknown: an
// unknown id read out of a header means heap corruption.
func (r *Registry) Get(id TypeID) *TypeDesc {
	if int(id) <= 0 || int(id) >= len(r.types) {
		panic(invalidTypeID(id)) // a plain value keeps Get inlinable
	}
	return r.types[id]
}

// invalidTypeID is Get's panic value.
type invalidTypeID TypeID

func (id invalidTypeID) Error() string { return fmt.Sprintf("heap: invalid type id %d", TypeID(id)) }

// Lookup returns the descriptor registered under name, or nil.
func (r *Registry) Lookup(name string) *TypeDesc { return r.byName[name] }

// Len returns the number of registered types (excluding the reserved 0).
func (r *Registry) Len() int { return len(r.types) - 1 }
