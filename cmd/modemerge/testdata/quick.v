module quick (clk, tclk, tmode, din, dout);
  input clk, tclk, tmode, din;
  output dout;
  wire gck, q1, n1;
  MUX2 ckmux (.I0(clk), .I1(tclk), .S(tmode), .Z(gck));
  DFF r1 (.CP(gck), .D(din), .Q(q1));
  INV u1 (.A(q1), .Z(n1));
  DFF r2 (.CP(gck), .D(n1), .Q(dout));
endmodule
