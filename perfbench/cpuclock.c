/* CPU time of another process, read from its POSIX process CPU clock.
   The clock counts every thread the process has run, including threads
   that have already exited, to the nanosecond. */

#define _POSIX_C_SOURCE 200809L
#include <math.h>
#include <sys/types.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* [process_cpu_s pid]: seconds, or nan if the clock cannot be read
   (no such process, or no permission). */
value perfbench_process_cpu_s(value pid)
{
  CAMLparam1(pid);
  clockid_t clock;
  struct timespec ts;
  double seconds = NAN;
  if (clock_getcpuclockid((pid_t) Int_val(pid), &clock) == 0
      && clock_gettime(clock, &ts) == 0)
    seconds = (double) ts.tv_sec + (double) ts.tv_nsec * 1e-9;
  CAMLreturn(caml_copy_double(seconds));
}
