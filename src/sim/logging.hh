/**
 * @file
 * Error reporting helpers, following the gem5 convention:
 *
 *  - panic():  something happened that should never happen regardless
 *              of user input (a simulator bug).  Aborts.
 *  - fatal():  the simulation cannot continue because of a user error
 *              (bad configuration, invalid arguments).  Exits with 1.
 */

#ifndef RAID2_SIM_LOGGING_HH
#define RAID2_SIM_LOGGING_HH

namespace raid2::sim {

/** Abort with a message: simulator bug, never the user's fault. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit(1) with a message: user/configuration error. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace raid2::sim

#endif // RAID2_SIM_LOGGING_HH
