#include "stramash/isa/isa.hh"

#include "stramash/common/logging.hh"

namespace stramash
{

const IsaDescriptor &
isaDescriptor(IsaType isa)
{
    // Expansion ratio calibrated to the paper's AE example output
    // (x86 8.60G instructions vs Arm 10.13G for the same benchmark
    // split: ~1.18x).
    static const IsaDescriptor x86{IsaType::X86_64,
                                   &X86PteFormat::instance(), 1.00, true};
    static const IsaDescriptor arm{IsaType::AArch64,
                                   &ArmPteFormat::instance(), 1.18, true};
    switch (isa) {
      case IsaType::X86_64: return x86;
      case IsaType::AArch64: return arm;
    }
    panic("unknown IsaType");
}

} // namespace stramash
