/**
 * @file
 * lfs::blockChecksums: XXH64 of many consecutive blocks at once.
 *
 * XXH64 runs four 64-bit lanes through one multiply round per 8-byte
 * word.  The scalar blockChecksum (format.hh) keeps those four lanes
 * in general-purpose registers and is bound by the one 64-bit multiply
 * a cycle they share.  On a CPU with AVX-512 F, DQ and VL, one zmm
 * register holds the four lanes of two blocks, and vpmullq multiplies
 * all eight at once; eight such registers hash sixteen blocks per pass
 * over their bytes, enough independent chains to cover the multiply's
 * latency.  A run of blocks is taken sixteen, then eight, then two at a
 * time; an odd last block, a block size that is not a multiple of 32
 * and every other CPU take the scalar path.  Each vector lane does what
 * the scalar lane does, so the values are the same XXH64.
 */

#include "lfs/format.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define RAID2_XXH64_AVX512 1
#endif

namespace raid2::lfs {

namespace {

#ifdef RAID2_XXH64_AVX512

/** The CPU and the OS support the AVX-512 kernel.  Asked once, on the
 *  first hash, not while static objects are being built. */
bool
avx512Usable()
{
    static const bool usable = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512dq") &&
               __builtin_cpu_supports("avx512vl");
    }();
    return usable;
}

/** XXH64 of one block whose bs bytes (a multiple of 32) have been run
 *  through the lanes @p v: the scalar blockChecksum's tail, with no
 *  words left over. */
std::uint64_t
finishLanes(const std::uint64_t *v, std::size_t bs)
{
    using namespace xxh64;
    std::uint64_t acc =
        rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
    for (int i = 0; i < 4; ++i)
        acc = (acc ^ round(0, v[i])) * p1 + p4;
    acc += bs;
    acc = (acc ^ (acc >> 33)) * p2;
    acc = (acc ^ (acc >> 29)) * p3;
    return acc ^ (acc >> 32);
}

/** Hash 2 * Pairs consecutive blocks of @p bs bytes (a multiple of 32,
 *  at least 32) into out[0 .. 2 * Pairs).  Register k holds blocks 2k
 *  (low half) and 2k + 1 (high half), lanes v1..v4 in each. */
template <unsigned Pairs>
__attribute__((target("avx512f,avx512dq,avx512vl"))) void
hashPairs(const std::uint8_t *data, std::size_t bs, std::uint64_t *out)
{
    using namespace xxh64;
    const __m512i prime1 = _mm512_set1_epi64(static_cast<long long>(p1));
    const __m512i prime2 = _mm512_set1_epi64(static_cast<long long>(p2));
    const __m512i seed = _mm512_set_epi64(
        static_cast<long long>(0 - p1), 0, static_cast<long long>(p2),
        static_cast<long long>(p1 + p2), static_cast<long long>(0 - p1),
        0, static_cast<long long>(p2), static_cast<long long>(p1 + p2));
    constexpr __mmask8 all = 0xff;
    __m512i acc[Pairs];
    for (unsigned k = 0; k < Pairs; ++k)
        acc[k] = seed;
    for (std::size_t off = 0; off < bs; off += 32) {
        // Unrolled, so that every accumulator stays in a register.
#pragma GCC unroll 8
        for (unsigned k = 0; k < Pairs; ++k) {
            const std::uint8_t *a = data + 2 * k * bs + off;
            // The maskz forms with every lane set are the plain
            // instructions; GCC 12 warns on the plain intrinsics' undefined
            // pass-through operand.
            const __m512i words = _mm512_maskz_inserti64x4(
                all, _mm512_castsi256_si512(_mm256_loadu_si256(
                         reinterpret_cast<const __m256i *>(a))),
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + bs)),
                1);
            // round(): rotl(acc + word * p2, 31) * p1, in every lane.
            acc[k] = _mm512_mullo_epi64(
                _mm512_maskz_rol_epi64(
                    all,
                    _mm512_add_epi64(acc[k],
                                     _mm512_mullo_epi64(words, prime2)),
                    31),
                prime1);
        }
    }
    alignas(64) std::uint64_t v[8];
    for (unsigned k = 0; k < Pairs; ++k) {
        _mm512_store_si512(v, acc[k]);
        out[2 * k] = finishLanes(v, bs);
        out[2 * k + 1] = finishLanes(v + 4, bs);
    }
}

#endif // RAID2_XXH64_AVX512

} // namespace

void
blockChecksums(const std::uint8_t *data, std::size_t n, std::size_t bs,
               std::uint64_t *out)
{
    std::size_t i = 0;
#ifdef RAID2_XXH64_AVX512
    if (bs >= 32 && bs % 32 == 0 && n >= 2 && avx512Usable()) {
        for (; n - i >= 16; i += 16)
            hashPairs<8>(data + i * bs, bs, out + i);
        if (n - i >= 8) {
            hashPairs<4>(data + i * bs, bs, out + i);
            i += 8;
        }
        for (; n - i >= 2; i += 2)
            hashPairs<1>(data + i * bs, bs, out + i);
    }
#endif
    for (; i < n; ++i)
        out[i] = blockChecksum({data + i * bs, bs});
}

} // namespace raid2::lfs
