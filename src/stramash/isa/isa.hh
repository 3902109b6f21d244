/**
 * @file
 * Per-ISA descriptors: the static properties the simulator and the
 * kernels need to know about each instruction set.
 */

#ifndef STRAMASH_ISA_ISA_HH
#define STRAMASH_ISA_ISA_HH

#include "stramash/isa/pte_format.hh"

namespace stramash
{

/**
 * Static description of one ISA.
 *
 * instExpansion models code-density differences: the same abstract
 * unit of work compiles to more instructions on a fixed-width RISC
 * encoding than on x86 (visible in the paper's AE example output,
 * where the Arm side retires ~18% more instructions than x86 for the
 * same benchmark half).
 */
struct IsaDescriptor
{
    IsaType type;
    const PteFormat *pteFormat;
    /** Instructions per abstract work unit. */
    double instExpansion;
    /** True if LSE-style single-instruction CAS is available
     *  (paper §6.5: Stramash requires CAS, not LL/SC, for cross-ISA
     *  locking). */
    bool hasCas;
};

/** The descriptor for @p isa. */
const IsaDescriptor &isaDescriptor(IsaType isa);

} // namespace stramash

#endif // STRAMASH_ISA_ISA_HH
