/*
 * A SIGPROF sampler to LD_PRELOAD into any program: every millisecond
 * of the process's CPU time it records the interrupted program
 * counter, and at exit it writes one line per sample to the file named
 * by $SIGPROF_OUT:
 *
 *     <object path> <offset of the pc from the object's load base>
 *
 * scripts/profile.sh builds it, runs perfbench under it and folds the
 * samples by source module. Build by hand with
 *
 *     cc -O2 -shared -fPIC -o sigprof_shim.so scripts/sigprof_shim.c -ldl
 */

#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

/* 2^20 samples: over 17 minutes of CPU time at 1 kHz. Only the pages
 * written count towards the program's resident set. */
#define MAX_SAMPLES (1u << 20)

static uintptr_t samples[MAX_SAMPLES];
static volatile sig_atomic_t count;

static void
onProf(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = ctx;
    uintptr_t pc;
#if defined(__x86_64__)
    pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sigprof_shim: unsupported architecture"
#endif
    if ((unsigned)count < MAX_SAMPLES)
        samples[count++] = pc;
}

static const struct itimerval period = {{0, 1000}, {0, 1000}};

__attribute__((constructor)) static void
start(void)
{
    if (!getenv("SIGPROF_OUT"))
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    setitimer(ITIMER_PROF, &period, NULL);
}

__attribute__((destructor)) static void
stop(void)
{
    const char *path = getenv("SIGPROF_OUT");
    if (!path)
        return;
    static const struct itimerval off;
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *f = fopen(path, "w");
    if (!f) {
        perror("sigprof_shim: SIGPROF_OUT");
        return;
    }
    for (unsigned i = 0; i < (unsigned)count; ++i) {
        Dl_info di;
        if (dladdr((void *)samples[i], &di) && di.dli_fname) {
            fprintf(f, "%s %lx\n", di.dli_fname,
                    (unsigned long)(samples[i] -
                                    (uintptr_t)di.dli_fbase));
        } else {
            fprintf(f, "? %lx\n", (unsigned long)samples[i]);
        }
    }
    fclose(f);
}
