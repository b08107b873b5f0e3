/**
 * @file
 * The CISC-to-RISC micro-op translation interface: cracks each
 * macro-instruction into 1..N micro-ops. Simple instructions use the
 * 1:1 decoders, moderately complex ones the 1:4 decoder, and long
 * flows (runtime-function bodies) the MSROM — mirroring the front
 * end of Figure 2 in the paper. A program's cracked sequences sit
 * one after another in one micro-op array, each instruction naming
 * its span.
 */

#ifndef CHEX_ISA_DECODER_HH
#define CHEX_ISA_DECODER_HH

#include <cstdint>
#include <vector>

#include "isa/insts.hh"
#include "isa/uops.hh"

namespace chex
{

/** Which decode structure handled an instruction. */
enum class DecodePath : uint8_t
{
    Simple,   // 1:1 decoder
    Complex,  // 1:4 decoder
    Msrom,    // microcode sequencer ROM
};

/** Result of cracking one macro-instruction: its span of uops. */
struct CrackedInst
{
    uint32_t first = 0; // index of its first micro-op
    uint32_t count = 0;
    DecodePath path = DecodePath::Simple;
};

/**
 * Stateless macro-op cracker. INTRINSIC bodies are cracked into a
 * fixed-length MSROM scaffold; the CPU's decode stage appends the
 * dynamic memory micro-ops reported by the runtime-function handler.
 */
class Decoder
{
  public:
    /**
     * Crack @p inst (at address @p addr, needed for CALL return
     * addresses), appending its micro-ops to @p uops.
     */
    static CrackedInst crack(const MacroInst &inst, uint64_t addr,
                             std::vector<StaticUop> &uops);

    /** Number of scaffold micro-ops for an intrinsic of @p kind. */
    static unsigned intrinsicUopCount(IntrinsicKind kind);
};

} // namespace chex

#endif // CHEX_ISA_DECODER_HH
