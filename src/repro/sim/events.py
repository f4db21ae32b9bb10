"""Bus access classification.

The UMPU functional units attach to the data bus and need to know *why*
an access happens: the Memory Map Controller checks data stores, the
safe-stack unit steals only the return-address pushes generated by the
``call`` family, and the domain tracker watches control flow.  On real
silicon these are distinct control signals from the instruction decoder;
here they are the :class:`AccessKind` tag on each bus transaction.
"""

import enum


class AccessKind(enum.Enum):
    DATA_LOAD = "data_load"    # ld/ldd/lds
    DATA_STORE = "data_store"  # st/std/sts
    STACK_PUSH = "stack_push"  # push instruction
    STACK_POP = "stack_pop"    # pop instruction
    RET_PUSH = "ret_push"      # return-address byte pushed by call/rcall/icall
    RET_POP = "ret_pop"        # return-address byte popped by ret/reti
    IO_READ = "io_read"        # in instruction / sbic/sbis
    IO_WRITE = "io_write"      # out instruction / sbi/cbi

    @property
    def is_write(self):
        return self in (AccessKind.DATA_STORE, AccessKind.STACK_PUSH,
                        AccessKind.RET_PUSH, AccessKind.IO_WRITE)
