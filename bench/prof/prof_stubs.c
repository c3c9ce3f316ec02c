/* PC sampling for bench/prof: a POSIX timer on CLOCK_MONOTONIC sends
   SIGPROF to the calling thread every interval, and the handler records
   the interrupted instruction pointer into a static buffer.  The handler
   only stores a word, so it is async-signal-safe and never enters the
   OCaml runtime.  Linux x86-64 only; elsewhere [fpc_prof_supported]
   returns false and the other stubs do nothing. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>

#if defined(__linux__) && defined(__x86_64__)
#include <signal.h>
#include <stdint.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>
#include <sys/syscall.h>

#define FPC_PROF_CAP (1 << 21)

static uintptr_t samples[FPC_PROF_CAP];
static volatile size_t n_samples = 0;
static volatile size_t n_dropped = 0;
static timer_t timer;
static int armed = 0;

static void on_sigprof(int sig, siginfo_t *si, void *ctx)
{
  (void)sig;
  (void)si;
  ucontext_t *uc = (ucontext_t *)ctx;
  size_t n = n_samples;
  if (n < FPC_PROF_CAP) {
    samples[n] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    n_samples = n + 1;
  } else
    n_dropped = n_dropped + 1;
}

value fpc_prof_supported(value unit)
{
  (void)unit;
  return Val_true;
}

value fpc_prof_start(value interval_ns)
{
  long ns = Long_val(interval_ns);
  struct sigaction sa;
  struct sigevent sev;
  struct itimerspec its;
  if (armed) caml_failwith("Prof.start: already sampling");
  n_samples = 0;
  n_dropped = 0;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) caml_failwith("Prof.start: sigaction");
  memset(&sev, 0, sizeof sev);
  /* Deliver to this thread only: the sampled code runs here. */
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0)
    caml_failwith("Prof.start: timer_create");
  its.it_interval.tv_sec = ns / 1000000000L;
  its.it_interval.tv_nsec = ns % 1000000000L;
  its.it_value = its.it_interval;
  if (timer_settime(timer, 0, &its, NULL) != 0) {
    timer_delete(timer);
    caml_failwith("Prof.start: timer_settime");
  }
  armed = 1;
  return Val_unit;
}

value fpc_prof_stop(value unit)
{
  (void)unit;
  if (armed) {
    timer_delete(timer);
    signal(SIGPROF, SIG_IGN);
    armed = 0;
  }
  return Val_unit;
}

value fpc_prof_count(value unit)
{
  (void)unit;
  return Val_long(n_samples);
}

value fpc_prof_dropped(value unit)
{
  (void)unit;
  return Val_long(n_dropped);
}

/* Sample [i] as an OCaml int: user-space addresses fit in 63 bits. */
value fpc_prof_sample(value i)
{
  long k = Long_val(i);
  if (k < 0 || (size_t)k >= n_samples) caml_invalid_argument("Prof.sample");
  return Val_long((intnat)samples[k]);
}

#else

value fpc_prof_supported(value unit) { (void)unit; return Val_false; }
value fpc_prof_start(value ns) { (void)ns; caml_failwith("Prof.start: unsupported"); }
value fpc_prof_stop(value unit) { (void)unit; return Val_unit; }
value fpc_prof_count(value unit) { (void)unit; return Val_long(0); }
value fpc_prof_dropped(value unit) { (void)unit; return Val_long(0); }
value fpc_prof_sample(value i) { (void)i; caml_invalid_argument("Prof.sample"); }

#endif
