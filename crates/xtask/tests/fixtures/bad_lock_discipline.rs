//! Fixture: lock-discipline — nested guards, guards across fan-outs and I/O.

use std::sync::Mutex;

pub struct S {
    a: Mutex<u64>,
    b: Mutex<u64>,
}

impl S {
    pub fn nested(&self) {
        let g = self.a.lock().unwrap();
        let h = self.b.lock().unwrap();
        drop(h);
        drop(g);
    }

    pub fn ordered(&self) {
        let g = self.a.lock().unwrap();
        // lint: allow(lock-discipline) order: a then b, everywhere
        let h = self.b.lock().unwrap();
        drop(h);
        drop(g);
    }

    pub fn scoped(&self) {
        {
            let g = self.a.lock().unwrap();
            drop(g);
        }
        let h = self.b.lock().unwrap();
        drop(h);
    }

    pub fn fanout(&self, xs: &[u64]) -> u64 {
        let g = self.a.lock().unwrap();
        let ys = par_map(xs, |x| x + 1);
        *g + ys.len() as u64
    }

    pub fn writes(&self, stream: &mut std::net::TcpStream) {
        use std::io::Write;
        let g = self.a.lock().unwrap();
        let _ = stream.write_all(b"x");
        drop(g);
    }

    pub fn ordered_fanout(&self, xs: &[u64]) -> u64 {
        let g = self.a.lock().unwrap();
        let ys = ordered_map(xs, |x| x + 1);
        *g + ys.len() as u64
    }
}
