/**
 * @file
 * Calibration constants for the RAID-II reproduction.
 *
 * Every constant is traceable to a sentence in the paper (cited next
 * to it) or, where the paper gives only a measured end-to-end number,
 * to the component spec that produces that number.  Benches must take
 * their parameters from here so EXPERIMENTS.md can audit the mapping.
 *
 * Nothing in this file is fitted to the paper's *curves*; the curves
 * are reproduced by simulating the datapath built from these specs.
 */

#ifndef RAID2_CONFIG_CALIBRATION_HH
#define RAID2_CONFIG_CALIBRATION_HH

#include "sim/types.hh"

namespace raid2::cal {

using sim::Tick;
using sim::msToTicks;
using sim::usToTicks;

// ---------------------------------------------------------------------
// SCSI subsystem ("Disk performance is responsible for the lower-than-
// expected hardware system level performance of RAID-II", §2.3)
// ---------------------------------------------------------------------

/** "the Cougar disk controller ... only supports about 3 megabytes/
 *  second on each of two SCSI strings" (§2.3, Fig 7).  Table 1's own
 *  arithmetic pins it more precisely: 4 VME ports deliver 27.6 MB/s
 *  through 8 strings = ~3.45 MB/s per string; we use 3.4. */
constexpr double scsiStringMBs = 3.4;

/** "The Cougar disk controllers can transfer data at 8 megabytes/
 *  second" (§2.2) — aggregate cap across both strings. */
constexpr double cougarMBs = 8.0;

/** Per-SCSI-command overhead on the string (arbitration, selection,
 *  message phases). Era-typical ~0.5 ms. */
constexpr Tick scsiCommandOverhead = usToTicks(500);

// ---------------------------------------------------------------------
// XBUS board (§2.2)
// ---------------------------------------------------------------------

/** Four 8 MB DRAM modules, 16-word interleave (§2.2, Fig 4). */
constexpr unsigned xbusMemModules = 4;
constexpr double xbusMemModuleMBs = 40.0; // 4 x 40 = 160 MB/s total
constexpr std::uint64_t xbusMemBytes = 4ull * 8 * 1024 * 1024;

/** "our relatively slow, synchronous VME interface ports ... only
 *  support 6.9 megabytes/second on read operations and 5.9 megabytes/
 *  second on write operations" (§2.3). */
constexpr double vmePortReadMBs = 6.9;
constexpr double vmePortWriteMBs = 5.9;

/** Parity (XOR) engine sits on one 40 MB/s XBUS port (§2.2). */
constexpr double parityEngineMBs = 40.0;

/**
 * The TMC-VME control-bus link to the host.  For Table 1 the paper
 * attaches a fifth Cougar to it, run as an independent stream (it
 * cannot be striped into the array without throttling every stripe):
 * reads gain 31 - 4*6.9 = 3.4 MB/s through it, writes nearly nothing
 * (23 ~= 4*5.9*23/24).  The link is "slow" (§2.3) because of
 * asynchronous-VME synchronization, which is worse when writing.
 */
constexpr double controlLinkReadMBs = 3.4;
constexpr double controlLinkWriteMBs = 1.0;

// ---------------------------------------------------------------------
// HIPPI network (§2.3, Fig 6)
// ---------------------------------------------------------------------

/** "the XBUS and HIPPI boards support 38 megabytes/second in both
 *  directions" — measured asymptote 38.5 (Fig 6) against the 40 MB/s
 *  port design target. */
constexpr double hippiPortMBs = 38.5;

/** "the overhead of sending a HIPPI packet is about 1.1 milliseconds,
 *  mostly due to setting up the HIPPI and XBUS control registers
 *  across the slow VME link" (§2.3). */
constexpr Tick hippiSetupOverhead = msToTicks(1.1);

// ---------------------------------------------------------------------
// Ethernet / clients (§2.1.1, §3.4)
// ---------------------------------------------------------------------

/** 10 Mb/s Ethernet = 1.25 MB/s raw. */
constexpr double ethernetMBs = 1.25;

/** "an Ethernet packet takes approximately 0.5 millisecond" (§2.3). */
constexpr Tick ethernetPacketOverhead = usToTicks(500);
constexpr std::uint64_t ethernetMTU = 1500;

/** SPARCstation 10/51 client NIC path is copy-limited: "writes data to
 *  RAID-II at 3.1 megabytes per second" / polling-driver reads at
 *  3.2 MB/s (§3.4). */
constexpr double clientWriteMBs = 3.1;
constexpr double clientReadMBs = 3.2;

// ---------------------------------------------------------------------
// Host workstation: Sun 4/280 (§1)
// ---------------------------------------------------------------------

/** "the low backplane bandwidth of the Sun 4/280's system bus, which
 *  becomes saturated at 9 megabytes/second" (§1). */
constexpr double hostBackplaneMBs = 9.0;

/** "copy operations ... saturate the memory system when I/O bandwidth
 *  reaches 2.3 megabytes/second" (§1): two passes (kernel DMA buffer
 *  -> user buffer each cross memory twice with the VME DMA stream in
 *  between) over a ~4.6 MB/s effective copy engine. */
constexpr double hostCopyMBs = 4.6;

/** Copies per byte for the RAID-I / standard-mode data path. */
constexpr unsigned hostCopiesPerByte = 2;

/** Per-I/O host CPU cost: "limited by the large number of context
 *  switches required on the Sun4/280 workstation to handle request
 *  completions" (§2.3).  Two switches plus kernel work per I/O. */
constexpr Tick hostPerIoCpu = msToTicks(2.4);

/** Extra per-I/O kernel work on the RAID-I path (buffer management on
 *  the host, cache flush interference, §1). */
constexpr Tick hostRaid1ExtraPerIo = msToTicks(1.3);

// ---------------------------------------------------------------------
// LFS on RAID-II (§3.4)
// ---------------------------------------------------------------------

/** "The LFS log is interleaved or striped across the disks in units of
 *  64 kilobytes" (§3.4) — binary kilobytes: 15 units x 64 KiB is
 *  exactly the 960 KB segment. */
constexpr std::uint64_t lfsStripeUnitBytes = 64 * sim::KiB;

/** "The log is written to the disk array in units or segments of 960
 *  kilobytes" (§3.4). */
constexpr std::uint64_t lfsSegmentBytes = 960 * sim::KiB;

/** "an average overhead of 23 milliseconds per operation: 4
 *  milliseconds of file system overhead and 19 milliseconds of disk
 *  overhead" (§3.4) — the 19 ms emerges from the disk model; the 4 ms
 *  is charged by the file server software. */
constexpr Tick lfsReadOpOverhead = msToTicks(4.0);

/** "approximately 3 milliseconds of network and file system overhead
 *  per request" for small writes (§3.4). */
constexpr Tick lfsWriteOpOverhead = msToTicks(3.0);

/** Default pipeline depth for the high-bandwidth read path (§3.3:
 *  "LFS may have several pipeline processes issuing read requests"). */
constexpr unsigned defaultPipelineDepth = 4;

/** Default XBUS transfer chunk for pipelined moves. */
constexpr std::uint64_t xbusChunkBytes = 16 * 1024;

} // namespace raid2::cal

#endif // RAID2_CONFIG_CALIBRATION_HH
